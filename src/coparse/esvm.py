"""Exemplar detectors: region selection, hinge-loss training, logistic
calibration, and sliding-window propagation of segmentation masks.

One linear classifier is trained per selected region (single positive
against sampled negatives) by solving its SVM dual, a box-constrained QP,
to optimality; its raw responses are mapped through a fitted logistic so
scores are comparable across exemplars. Propagation scores every window of
every corpus image, ranks them all in one pass with one greedy NMS, and
places the exemplar's mask at the top k.
"""

from __future__ import annotations

import base64
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import features, kernels
from .core import ImageRecord, PropagationRecord, Region, check_placement, dilate
from .errors import DataError, InsufficientDataError, MalformedInputError
from .io import check_json_types

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
    relative_duality_gap: float = 0.0  # over max(1, lam1 + lam2 * negatives); 0 from JSON
    degenerate_calibration: bool = False   # the logistic fit fell back; False from JSON


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
    band = dilate(mask, BAND_WIDTH) & ~mask
    if not band.any():
        return 0.0
    local = maps.window(rows, cols)
    contrast = float(features.chi_square(features.region_histogram(local, mask),
                                         features.region_histogram(local, band)))
    return centrality * contrast


def select_regions(maps: features.ImageMaps, regions: list[Region],
                   a_min: float, a_max: float, tau_sel: float, n_sel: int) -> list[int]:
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


def train_esvm(positive: np.ndarray, negatives: list[np.ndarray] | np.ndarray,
               lam1: float, lam2: float) -> TrainResult:
    """Minimize ``esvm_energy`` exactly through its dual.

    With the signed rows X = [positive; -negatives] the energy is a linear
    SVM with C = (lam1, lam2, ..., lam2) per row, whose dual is the box QP
    min 0.5 a'(XX')a - sum(a), 0 <= a <= C, solved by
    ``kernels.solve_box_qp``; then w = X'a. Identical negatives are merged
    first into one row whose C is lam2 times their count: the energy of
    every w is the same, so is its minimiser, and the Gram matrix has no
    repeated rows, which would make it singular. The trace holds the best primal
    energy seen up to each solver iteration plus one entry that also counts
    the returned ``w``, so it is never empty. The solve is deterministic.
    Features are taken as given; callers wanting a bias append a constant
    coordinate (build_exemplar does).
    """
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.ndim != 2 or negs.shape[0] == 0:
        raise InsufficientDataError("at least one negative example is required")
    if lam1 <= 0 or lam2 <= 0:
        raise MalformedInputError("regularization weights must be positive")
    pos = np.asarray(positive, dtype=np.float64)
    copies: dict[bytes, list[int]] = {}
    for i, row in enumerate(negs):
        copies.setdefault(row.tobytes(), []).append(i)
    x = np.vstack([pos, -negs[[rows[0] for rows in copies.values()]]])
    gram = x @ x.T
    c = np.array([lam1] + [lam2 * len(rows) for rows in copies.values()])
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


def _expit(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) of each entry with the C library's ``exp``, which
    gives ``scipy.special.expit``'s bits (numpy's vectorised ``exp`` may
    round otherwise), and 0 where ``exp(-z)`` overflows."""
    q = np.zeros(z.shape)
    for i, v in enumerate(z.tolist()):
        try:
            q[i] = 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            pass
    return q


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
        q = _expit(x @ p)
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


def region_template(region: Region) -> tuple[int, int]:
    """The cell grid of an exemplar trained on ``region``."""
    rows, cols = region.bbox
    return features.template_from_bbox(rows.stop - rows.start, cols.stop - cols.start)


def fits(blocks: np.ndarray, template: tuple[int, int]) -> bool:
    """Whether a pyramid level's blocks hold a window of ``template``: a
    window of cy x cx cells covers (cy - 1) x (cx - 1) blocks."""
    return blocks.shape[0] >= template[0] - 1 and blocks.shape[1] >= template[1] - 1


def window_boxes(level_y, level_x, template: tuple[int, int], level_shape, image_shape):
    """(y0, x0, height, width) in image pixels of the template windows at
    pixel (level_y, level_x) of pyramid levels of shape ``level_shape`` (sh,
    sw), mapped back by the level's scale and kept inside the image. int /
    int is correctly rounded and np.round rounds half to even, as Python's
    round does, so y0 is int(round(level_y * h / sh)) capped at h - height."""
    cy, cx = template
    (sh, sw), (h, w) = level_shape, image_shape
    wh = np.maximum(1, np.round(cy * features.CELL * h / sh).astype(np.int64))
    ww = np.maximum(1, np.round(cx * features.CELL * w / sw).astype(np.int64))
    y0 = np.minimum(np.round(level_y * h / sh).astype(np.int64), h - wh)
    x0 = np.minimum(np.round(level_x * w / sw).astype(np.int64), w - ww)
    return y0, x0, wh, ww


def sample_negatives(corpus_images: list[ImageRecord], image: ImageRecord,
                     excluded: np.ndarray, template: tuple[int, int], count: int,
                     rng: np.random.Generator,
                     pyramids: dict[str, features.HogPyramid]) -> np.ndarray:
    """Template windows of the images' HOG pyramids, avoiding the selected
    foreground, one per row.

    A window is ``blocks[y:y + cy - 1, x:x + cx - 1]`` of a random level that
    fits the template, at a random block position (y, x): the vector that
    ``detect`` scores there. Half the windows come from this image: each
    takes the first of 50 draws whose box in image pixels lies at most half
    in ``excluded``, or else the top-left window of the first fitting level.
    The other half, after them, come round-robin from the other images with
    a fitting level; when this image has no fitting level they are all the
    windows, and when no other image has one there are none. ``pyramids``
    holds each image's ``features.hog_pyramid`` by id; some image must have
    a fitting level.
    """
    cy, cx = template
    levels = {rec.id: [level for level in pyramids[rec.id].values() if fits(level[2], template)]
              for rec in [image, *corpus_images]}
    others = [rec.id for rec in corpus_images if rec.id != image.id and levels[rec.id]]
    n_same = 0 if not levels[image.id] else count if not others else count // 2

    def draw(image_id, shape):
        """Level index, block row and column of random windows, and each
        one's level as (sh, sw, rows, columns of window positions)."""
        which = rng.integers(len(levels[image_id]), size=shape)
        table = np.array([(sh, sw, blocks.shape[0] - cy + 2, blocks.shape[1] - cx + 2)
                          for sh, sw, blocks in levels[image_id]])[which]
        return which, rng.integers(table[..., 2]), rng.integers(table[..., 3]), table

    def window(image_id, level, y, x):
        return levels[image_id][level][2][y:y + cy - 1, x:x + cx - 1]

    rows = []
    if n_same:
        which, ys, xs, table = draw(image.id, (n_same, 50))
        y0, x0, wh, ww = window_boxes(ys * features.CELL, xs * features.CELL, template,
                                      (table[..., 0], table[..., 1]), excluded.shape)
        integral = np.pad(excluded.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
        inside = (integral[y0 + wh, x0 + ww] - integral[y0, x0 + ww]
                  - integral[y0 + wh, x0] + integral[y0, x0])
        allowed = 2 * inside <= wh * ww
        first = np.arange(n_same), allowed.argmax(axis=1)
        # a window without an allowed draw becomes (0, 0, 0)
        rows = [window(image.id, *pick)
                for pick in zip(*(a[first] * allowed[first] for a in (which, ys, xs)))]
    k = len(others)
    rest = [[window(image_id, *pick)
             for pick in zip(*draw(image_id, len(range(j, count - n_same, k)))[:3])]
            for j, image_id in enumerate(others)]
    # window i of the rest is window i // k of others[i % k]
    rows += [rest[i % k][i // k] for i in range(count - n_same)]
    return np.stack(rows).reshape(count, -1)


def build_exemplar(exemplar_id: str, image: ImageRecord, region: Region,
                   corpus_images: list[ImageRecord], excluded: np.ndarray,
                   lam1: float, lam2: float, seed: int,
                   maps: dict[str, features.ImageMaps],
                   pyramids: dict[str, features.HogPyramid]) -> Exemplar:
    """Train and calibrate one exemplar from a selected region; ``maps``
    holds the maps of ``image`` and ``pyramids`` the HOG pyramid of every
    corpus image by id, and the region's template must fit a level of one
    of them. The positive is the HOG of the region's luma patch and the
    negatives are pyramid windows (``sample_negatives``)."""
    rows, cols = region.bbox
    template = region_template(region)
    cy, cx = template
    positive = features.hog(maps[image.id].luma[rows, cols], template)
    rng = np.random.default_rng(exemplar_seed(seed, exemplar_id))
    negatives = sample_negatives(corpus_images, image, excluded, template,
                                 NEGATIVES_PER_EXEMPLAR, rng, pyramids)
    # bias enters as a constant feature coordinate
    pos_aug = np.append(positive, 1.0)
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
                    relative_duality_gap=trained.duality_gap
                    / max(1.0, lam1 + lam2 * negatives.shape[0]),
                    degenerate_calibration=cal.degenerate)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def detect(exemplar: Exemplar, image: ImageRecord,
           pyramid: features.HogPyramid, stride: int, scales: tuple[float, ...]) -> np.ndarray:
    """The window table of one image: a row (raw score, scale index, y0, x0,
    height, width) per template window over the scale set, in scale, row and
    column order; boxes are in image pixels. ``pyramid`` is
    ``features.hog_pyramid`` of the image's luma over (at least) ``scales``.
    """
    cy, cx = exemplar.template
    w_blocks = exemplar.w[:-1]
    bias = float(exemplar.w[-1])
    step = max(1, stride // features.CELL)
    parts = [np.empty((0, 6))]
    for s_idx, s in enumerate(scales):
        sh, sw, blocks = pyramid[s]
        if not fits(blocks, exemplar.template):
            continue
        scores = kernels.score_windows(blocks, cy - 1, cx - 1, w_blocks, step) + bias
        ys = np.arange(scores.shape[0]) * (step * features.CELL)
        xs = np.arange(scores.shape[1]) * (step * features.CELL)
        y0, x0, wh, ww = window_boxes(ys, xs, exemplar.template, (sh, sw),
                                      image.pixels.shape[:2])
        y0, x0 = np.broadcast_arrays(y0[:, None], x0[None, :])
        parts.append(np.stack([scores.ravel(), np.full(scores.size, s_idx), y0.ravel(),
                               x0.ravel(), np.full(scores.size, wh),
                               np.full(scores.size, ww)], axis=1))
    return np.concatenate(parts)


def propagate(exemplar: Exemplar, corpus_images: list[ImageRecord],
              pyramids: dict[str, features.HogPyramid],
              k: int, stride: int, scales: tuple[float, ...]) -> list[PropagationRecord]:
    """Global top-k NMS-filtered detections, each carrying the resized mask;
    ``pyramids`` holds each corpus image's HOG pyramid by id.

    Every image's windows are ranked at once by raw score, then image
    position, scale, row and column. Greedy NMS drops the later windows of a
    kept window's image that overlap it at IoU above 0.5, and stops once k
    windows are kept and the next live one scores below the last kept, so
    every window tied with the k-th is still kept. The kept windows are
    ordered by raw score, image id, row, column and scale, and the first k
    are placed; ``calibrate`` keeps alpha positive, so that is also the order
    of the calibrated score, which is computed for those k only.
    """
    if k <= 0:
        return []
    tables = [detect(exemplar, image, pyramids[image.id], stride=stride, scales=scales)
              for image in corpus_images]
    owner = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    table = np.concatenate(tables)
    raws = table[:, 0]
    s_idx, y0, x0, wh, ww = table[:, 1:].T.astype(np.int64)
    order = np.lexsort((x0, y0, s_idx, owner, -raws))
    raws, owner, s_idx, y0, x0, wh, ww = (a[order] for a in (raws, owner, s_idx, y0, x0,
                                                            wh, ww))
    y1, x1 = y0 + wh, x0 + ww
    area = wh * ww
    alive = np.ones(order.size, dtype=bool)
    kept: list[int] = []
    for i in range(order.size):
        if not alive[i]:
            continue
        if len(kept) >= k and raws[i] < raws[kept[-1]]:
            break
        kept.append(i)
        # IoU is symmetric, so a kept window drops every later one it overlaps
        inter = (np.maximum(np.minimum(x1, x1[i]) - np.maximum(x0, x0[i]), 0)
                 * np.maximum(np.minimum(y1, y1[i]) - np.maximum(y0, y0[i]), 0))
        alive &= (owner != owner[i]) | (inter / (area + area[i] - inter) <= 0.5)
    ids = np.array([im.id for im in corpus_images])
    top = np.array(kept, dtype=np.int64)
    top = top[np.lexsort((s_idx[top], x0[top], y0[top], ids[owner[top]], -raws[top]))][:k]
    scores = calibrated_score(exemplar.alpha, exemplar.beta, raws[top])
    return [PropagationRecord(
        source_exemplar=exemplar.id, target_image=corpus_images[owner[i]].id,
        x=int(x0[i]), y=int(y0[i]),
        mask=features.nearest_resize_mask(exemplar.mask, int(wh[i]), int(ww[i])),
        score=float(c)) for i, c in zip(top, scores)]


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


_RLE_TYPES = {"shape": "tuple[int, int]", "runs": "tuple[int, ...]"}
_EXEMPLAR_TYPES = {"id": "str", "w": "str", "alpha": "float", "beta": "float",
                   "source_region": "tuple[str, int]", "template": "tuple[int, int]",
                   "mask": "dict"}
_PROPAGATION_TYPES = {"exemplar": "str", "image": "str", "x": "int", "y": "int",
                      "score": "float", "mask": "dict"}


def _rle(doc) -> tuple[tuple[int, int], tuple[int, ...]]:
    """The declared shape and run lengths of a run-length document."""
    rle = check_json_types(doc, _RLE_TYPES, DataError, "mask")
    shape, runs = rle["shape"], rle["runs"]
    if min(shape + runs) < 0:
        raise MalformedInputError("mask shape and run lengths must be non-negative")
    return shape, runs


def _expand_rle(shape: tuple[int, int], runs: tuple[int, ...]) -> np.ndarray:
    if sum(runs) != shape[0] * shape[1]:
        raise MalformedInputError("run lengths do not cover the mask")
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)


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


def exemplar_from_json(doc) -> Exemplar:
    """An exemplar as ``build_exemplar`` makes it: a template of at least
    2x2 cells, one weight per HOG feature of it plus the bias, and a mask of
    its pixel grid, checked before the mask is built."""
    rec = check_json_types(doc, _EXEMPLAR_TYPES, DataError, "exemplar")
    w = np.frombuffer(base64.b64decode(rec["w"]), dtype="<f8").astype(np.float64)
    cy, cx = template = rec["template"]
    if min(template) < 2 or w.size != (cy - 1) * (cx - 1) * 4 * features.HOG_BINS + 1:
        raise MalformedInputError(f"exemplar {rec['id']!r}: {w.size} weights do not fit "
                                  f"a {cy}x{cx}-cell template")
    shape, runs = _rle(rec["mask"])
    if shape != (cy * features.CELL, cx * features.CELL):
        raise MalformedInputError(f"exemplar {rec['id']!r}: a {shape[0]}x{shape[1]} mask "
                                  f"is not the pixel grid of its {cy}x{cx}-cell template")
    return Exemplar(id=rec["id"], w=w, alpha=rec["alpha"], beta=rec["beta"],
                    source_region=rec["source_region"], mask=_expand_rle(shape, runs),
                    template=template)


def propagation_to_json(record: PropagationRecord) -> dict:
    return {
        "exemplar": record.source_exemplar,
        "image": record.target_image,
        "x": record.x,
        "y": record.y,
        "score": record.score,
        "mask": mask_to_rle(record.mask),
    }


def propagation_from_json(doc, image_shapes: dict[str, tuple[int, int]]) -> PropagationRecord:
    """A propagation record whose image is one of ``image_shapes`` ((height,
    width) by image id) and whose placed mask lies inside it, checked before
    the mask is built."""
    rec = check_json_types(doc, _PROPAGATION_TYPES, DataError, "propagation")
    shape, runs = _rle(rec["mask"])
    if rec["image"] not in image_shapes:
        raise DataError(f"unknown image {rec['image']!r}")
    check_placement(shape, rec["x"], rec["y"], image_shapes[rec["image"]], rec["image"])
    return PropagationRecord(source_exemplar=rec["exemplar"], target_image=rec["image"],
                             x=rec["x"], y=rec["y"], mask=_expand_rle(shape, runs),
                             score=rec["score"])
