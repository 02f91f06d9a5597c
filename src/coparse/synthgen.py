"""Deterministic synthetic corpora with exact ground truth.

Each scene is a textured background plus 1-4 non-overlapping garment shapes
(rectangles or ellipses) drawn at locations sampled from per-label canonical
Gaussians with label-specific color palettes. Superpixels are jittered grid
cells split along ground-truth boundaries, so Phase I is solvable from the
oversegmentation; contours are the dilated shape boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ImageRecord, dilate, label_components
from .errors import GenerationError, MalformedInputError
from .io import Corpus

SHAPE_KINDS = ("rect", "ellipse")


@dataclass(frozen=True)
class LabelSpec:
    name: str
    location_mean: tuple[float, float]      # normalized (row, col)
    location_sigma: float
    color: tuple[int, int, int]
    color_sigma: float = 12.0
    size_range: tuple[float, float] = (0.18, 0.30)  # shape side as fraction of min dim

    def __post_init__(self):
        if not (0.0 <= self.location_mean[0] <= 1.0 and 0.0 <= self.location_mean[1] <= 1.0):
            raise MalformedInputError(f"{self.name}: location mean outside [0,1]^2")
        if self.location_sigma < 0 or self.color_sigma < 0:
            raise MalformedInputError(f"{self.name}: location and color sigmas must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    height: int = 128
    width: int = 96
    labels: tuple[LabelSpec, ...] = ()
    shapes_per_image: tuple[int, int] = (1, 4)
    shape_kinds: tuple[str, ...] = SHAPE_KINDS
    noise_level: float = 0.02
    cell_size: int = 12
    cell_jitter: int = 3
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.noise_level <= 0.3:
            raise MalformedInputError("noise level must lie in [0, 0.3]")
        # features need a gradient along both axes, so an image is at least 2x2
        if self.height < 2 or self.width < 2 or self.cell_size < 1 or self.cell_jitter < 0:
            raise MalformedInputError("height and width must be >= 2, cell_size >= 1 and "
                                      "cell_jitter >= 0")
        if not self.shape_kinds or not set(self.shape_kinds) <= set(SHAPE_KINDS):
            raise MalformedInputError(f"shape_kinds {list(self.shape_kinds)} must be some of "
                                      f"{list(SHAPE_KINDS)}")
        names = [label.name for label in self.labels]
        if not names or "background" in names or len(set(names)) < len(names):
            raise MalformedInputError(f"label names {names} must be one or more distinct "
                                      "names other than 'background'")
        lo, hi = self.shapes_per_image
        if not 0 <= lo <= min(hi, len(self.labels)):
            raise MalformedInputError(f"shapes_per_image {list(self.shapes_per_image)} needs "
                                      f"0 <= low <= high and low <= {len(self.labels)} labels")


def default_scene_spec(seed: int = 42) -> SceneSpec:
    return SceneSpec(seed=seed, labels=(
        LabelSpec("shirt", (0.40, 0.50), 0.03, (200, 40, 40), size_range=(0.16, 0.24)),
        LabelSpec("pants", (0.72, 0.50), 0.03, (40, 40, 200), size_range=(0.16, 0.24)),
        LabelSpec("hat", (0.11, 0.50), 0.02, (40, 170, 60), size_range=(0.13, 0.17)),
        LabelSpec("bag", (0.50, 0.17), 0.02, (220, 200, 40), size_range=(0.13, 0.18)),
    ))


def vocabulary_of(spec: SceneSpec) -> tuple[str, ...]:
    return ("background",) + tuple(l.name for l in spec.labels)


def _background(h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    base = 120.0
    phase_r = rng.uniform(0, 2 * np.pi)
    phase_c = rng.uniform(0, 2 * np.pi)
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    tex = 12.0 * np.sin(2 * np.pi * rows / 37.0 + phase_r) \
        + 12.0 * np.cos(2 * np.pi * cols / 29.0 + phase_c)
    img = np.empty((h, w, 3))
    for ch, offset in enumerate((0.0, 4.0, -4.0)):
        img[..., ch] = base + offset + tex
    return img


def _shape_mask(kind: str, h: int, w: int, cy: int, cx: int, sh: int, sw: int) -> np.ndarray:
    mask = np.zeros((h, w), dtype=bool)
    if kind == "rect":
        mask[cy - sh // 2:cy - sh // 2 + sh, cx - sw // 2:cx - sw // 2 + sw] = True
    else:
        rows = np.arange(h)[:, None]
        cols = np.arange(w)[None, :]
        mask = ((rows - cy) / (sh / 2.0)) ** 2 + ((cols - cx) / (sw / 2.0)) ** 2 <= 1.0
    return mask


def _generate_image(spec: SceneSpec, image_id: str,
                    rng: np.random.Generator) -> ImageRecord:
    h, w = spec.height, spec.width
    img = _background(h, w, rng)
    gt = np.zeros((h, w), dtype=np.int64)

    n_labels = len(spec.labels)
    lo, hi = spec.shapes_per_image
    n_shapes = int(rng.integers(lo, min(hi, n_labels) + 1))
    chosen = rng.choice(n_labels, size=n_shapes, replace=False)
    occupied = np.zeros((h, w), dtype=bool)
    min_dim = min(h, w)
    for li in sorted(int(c) for c in chosen):
        label_spec = spec.labels[li]
        placed = False
        for _ in range(100):
            frac = rng.uniform(*label_spec.size_range)
            sh = max(16, int(round(frac * min_dim * rng.uniform(0.9, 1.2))))
            sw = max(16, int(round(frac * min_dim)))
            # a side that leaves no room for the 2-pixel margins is redrawn;
            # clipping its centre would leave the shape without pixels
            if sh // 2 + 2 > h - sh // 2 - 3 or sw // 2 + 2 > w - sw // 2 - 3:
                continue
            # clip location draws at 2.5 sigma: keeps the mean, caps collisions
            dy = np.clip(rng.normal(0.0, label_spec.location_sigma), -2.5 * label_spec.location_sigma,
                         2.5 * label_spec.location_sigma)
            dx = np.clip(rng.normal(0.0, label_spec.location_sigma), -2.5 * label_spec.location_sigma,
                         2.5 * label_spec.location_sigma)
            cy = int(round((label_spec.location_mean[0] + dy) * h))
            cx = int(round((label_spec.location_mean[1] + dx) * w))
            cy = int(np.clip(cy, sh // 2 + 2, h - sh // 2 - 3))
            cx = int(np.clip(cx, sw // 2 + 2, w - sw // 2 - 3))
            kind = spec.shape_kinds[int(rng.integers(0, len(spec.shape_kinds)))]
            mask = _shape_mask(kind, h, w, cy, cx, sh, sw)
            grown = dilate(mask, 3)
            if (grown & occupied).any():
                continue
            occupied |= grown
            gt[mask] = li + 1
            color = np.array(label_spec.color, dtype=np.float64)
            img[mask] = color + rng.normal(0.0, label_spec.color_sigma, size=(int(mask.sum()), 3))
            placed = True
            break
        if not placed:
            raise GenerationError(f"{image_id}: could not place label {label_spec.name}")

    if spec.noise_level > 0:
        img += rng.normal(0.0, spec.noise_level * 255.0, size=img.shape)
    pixels = np.clip(np.round(img), 0, 255).astype(np.uint8)

    boundary = np.zeros((h, w), dtype=bool)
    boundary[:, :-1] |= gt[:, :-1] != gt[:, 1:]
    boundary[:, 1:] |= gt[:, :-1] != gt[:, 1:]
    boundary[:-1, :] |= gt[:-1, :] != gt[1:, :]
    boundary[1:, :] |= gt[:-1, :] != gt[1:, :]
    contour = dilate(boundary)

    spmap = _superpixels(spec, gt, rng)
    tags = frozenset(int(v) for v in np.unique(gt))
    return ImageRecord(id=image_id, pixels=pixels, tags=tags,
                       superpixel_map=spmap, contour_map=contour, ground_truth=gt)


def _superpixels(spec: SceneSpec, gt: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Jittered grid cells, split along ground-truth boundaries.

    Every (cell, label) piece is relabeled into 4-connected components, so
    superpixels are pure and connected by construction.
    """
    h, w = gt.shape

    def lines(extent):
        cuts = [0]
        pos = spec.cell_size
        while pos < extent - spec.cell_size // 2:
            jitter = int(rng.integers(-spec.cell_jitter, spec.cell_jitter + 1))
            cuts.append(int(np.clip(pos + jitter, cuts[-1] + 2, extent - 2)))
            pos += spec.cell_size
        cuts.append(extent)
        return cuts

    row_cuts = lines(h)
    col_cuts = lines(w)
    cell = np.zeros((h, w), dtype=np.int64)
    cid = 0
    for ri in range(len(row_cuts) - 1):
        for ci in range(len(col_cuts) - 1):
            cell[row_cuts[ri]:row_cuts[ri + 1], col_cuts[ci]:col_cuts[ci + 1]] = cid
            cid += 1

    spmap, _ = label_components(cell * (gt.max() + 1) + gt)
    return spmap


def generate(spec: SceneSpec, n_images: int) -> Corpus:
    """Fully seeded corpus; per-image child seeds keep images independent."""
    if n_images < 1:
        raise MalformedInputError("n_images must be >= 1")
    images = []
    for i in range(n_images):
        rng = np.random.default_rng([spec.seed, i])
        images.append(_generate_image(spec, f"img{i:04d}", rng))
    return Corpus(vocabulary=vocabulary_of(spec), images=tuple(images))
