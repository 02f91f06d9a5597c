"""Deterministic appearance features.

Two descriptor families: a 40-bin region histogram (24 color bins, 8 per RGB
channel, plus 16 gradient-orientation bins weighted by gradient magnitude)
compared with a bounded chi-square distance (``chi_square``, one kernel that
reduces over the last axis of histograms broadcast against each other, from
one pair to a whole distance matrix), and a classic HOG descriptor
(8x8 cells, 9 unsigned orientation bins, 2x2 blocks, L2-hys) for template
detection. The callers build each image's ``ImageMaps`` and HOG pyramid once
per call and pass them to every stage that reads the image's pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateRegionError, PatchTooSmallError

CELL = 8
HOG_BINS = 9
COLOR_BINS = 8          # per RGB channel
GRAD_BINS = 16
MIN_PATCH_SIDE = 2      # pixels: the shortest patch side HOG accepts
TEMPLATE_CELLS = 8      # cells along an exemplar template's longer side

# scale -> (resized height, resized width, HOG blocks), as hog_pyramid builds it
HogPyramid = dict[float, tuple[int, int, np.ndarray]]


def luma(pixels: np.ndarray) -> np.ndarray:
    """Rec. 601 luminance as float64."""
    px = pixels.astype(np.float64)
    return 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]


@dataclass(frozen=True)
class ImageMaps:
    """Per-pixel appearance maps of one image, built once by ``image_maps``."""

    luma: np.ndarray        # (H, W) float64
    magnitude: np.ndarray   # (H, W) float64 gradient magnitude
    grad_bin: np.ndarray    # (H, W) uint8 signed-orientation bin, 0..GRAD_BINS-1
    color_bin: np.ndarray   # (H, W, 3) uint8 bin per RGB channel, 0..COLOR_BINS-1

    def window(self, rows: slice, cols: slice) -> "ImageMaps":
        """The maps of one rectangle of the image, as views."""
        return ImageMaps(luma=self.luma[rows, cols], magnitude=self.magnitude[rows, cols],
                         grad_bin=self.grad_bin[rows, cols], color_bin=self.color_bin[rows, cols])


def image_maps(pixels: np.ndarray) -> ImageMaps:
    """Luma, gradient magnitude and the histogram bin indexes of every pixel."""
    gray = luma(pixels)
    # central differences, one-sided at the borders
    gy, gx = np.gradient(gray)
    theta = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    grad_bin = np.minimum((theta * GRAD_BINS / (2.0 * np.pi)).astype(np.int64), GRAD_BINS - 1)
    color_bin = pixels.astype(np.int64) * COLOR_BINS // 256
    return ImageMaps(luma=gray, magnitude=np.hypot(gx, gy),
                     grad_bin=grad_bin.astype(np.uint8), color_bin=color_bin.astype(np.uint8))


def region_histograms(maps: ImageMaps, label_map: np.ndarray, count: int) -> np.ndarray:
    """(count, 40) appearance histograms of the regions 0..count-1 of a label map.

    One ``np.bincount`` pass counts the color bins of every region and one
    sums the gradient magnitude per orientation bin; each bin adds its
    pixels in row-major order. Color and gradient halves are each normalized
    to mass 0.5; a region with zero gradient energy gets a uniform gradient
    half, and an empty one a zero color half.
    """
    labels = np.asarray(label_map, dtype=np.int64)
    if labels.shape != maps.luma.shape:
        raise DegenerateRegionError("region map shape mismatch")
    channel = np.arange(3) * COLOR_BINS
    color_index = (labels[..., None] * (3 * COLOR_BINS) + channel) + maps.color_bin
    color = np.bincount(color_index.ravel(), minlength=count * 3 * COLOR_BINS)
    color = color[:count * 3 * COLOR_BINS].reshape(count, 3 * COLOR_BINS).astype(np.float64)
    grad = np.bincount((labels * GRAD_BINS + maps.grad_bin).ravel(),
                       weights=maps.magnitude.ravel(), minlength=count * GRAD_BINS)
    grad = grad[:count * GRAD_BINS].reshape(count, GRAD_BINS)
    color_total, grad_total = color.sum(axis=1), grad.sum(axis=1)
    color *= np.divide(0.5, color_total, out=np.zeros(count), where=color_total > 0)[:, None]
    grad *= np.divide(0.5, grad_total, out=np.zeros(count), where=grad_total > 0)[:, None]
    grad[grad_total <= 0.0] = 0.5 / GRAD_BINS
    return np.concatenate([color, grad], axis=1)


def region_histogram(maps: ImageMaps, region_mask: np.ndarray) -> np.ndarray:
    """40-bin appearance histogram of the masked pixels (``region_histograms``
    of the two-label map the mask makes)."""
    mask = np.asarray(region_mask, dtype=bool)
    if not mask.any():
        raise DegenerateRegionError("empty region mask")
    return region_histograms(maps, mask, 2)[1]


def chi_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chi-square distance 0.5 * sum (a-b)^2 / (a+b) over the last axis of
    non-negative histograms broadcast against each other (``a[:, None],
    b[None]`` pairs every row of a with every row of b); a bin empty in both
    contributes 0. Each distance sums its own contiguous row of terms, so it
    has the same bits in any batch."""
    num = (a - b) ** 2
    den = a + b
    den += den == 0.0       # a bin empty in both: 0 / 1, in place
    num /= den
    return 0.5 * num.sum(axis=-1)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resampling of a 2-D float raster.

    Every source row is interpolated along its columns once, then the
    output rows between those. A same-shape resize returns the raster
    itself, the bits the interpolation gives for a finite raster with no
    negative zero."""
    src = np.asarray(img, dtype=np.float64)
    h, w = src.shape
    if (out_h, out_w) == (h, w):
        return src
    r = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    c = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    r0 = np.clip(np.floor(r).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(c).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = np.clip(r - r0, 0.0, 1.0)[:, None]
    fc = np.clip(c - c0, 0.0, 1.0)[None, :]
    across = src[:, c0] * (1 - fc) + src[:, c1] * fc
    return across[r0] * (1 - fr) + across[r1] * fr


def nearest_resize_mask(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    src = np.asarray(mask, dtype=bool)
    h, w = src.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1)
    return src[rows[:, None], cols[None, :]]


def unsigned_bins(theta: np.ndarray) -> np.ndarray:
    """HOG bin of each angle in [-pi, pi], the bin of ``np.mod(theta, np.pi)``.

    Overwrites ``theta``. An angle of exactly pi goes to 0 first, as
    ``np.mod`` sends it; each negative angle then gains pi, the sum
    ``np.mod`` forms for it, without ``np.mod``'s slower ufunc.
    """
    theta[theta == np.pi] = 0.0
    np.add(theta, np.pi, out=theta, where=theta < 0.0)
    return np.minimum((theta * HOG_BINS / np.pi).astype(np.int64), HOG_BINS - 1)


def block_normalize(cells: np.ndarray) -> np.ndarray:
    """L2-hys over 2x2 cell blocks: normalize, clip at 0.2, renormalize.

    Zero blocks stay zero through the epsilon guard. Input (..., CY, CX, 9),
    output (..., CY-1, CX-1, 36).
    """
    blocks = np.concatenate([
        cells[..., :-1, :-1, :], cells[..., :-1, 1:, :],
        cells[..., 1:, :-1, :], cells[..., 1:, 1:, :],
    ], axis=-1)
    eps = 1e-10
    norm = np.sqrt((blocks ** 2).sum(axis=-1, keepdims=True) + eps ** 2)
    blocks = blocks / norm
    blocks = np.minimum(blocks, 0.2)
    norm = np.sqrt((blocks ** 2).sum(axis=-1, keepdims=True) + eps ** 2)
    return blocks / norm


def hog_blocks(gray: np.ndarray, grid_y: int, grid_x: int) -> np.ndarray:
    """Block-normalized HOG of a float64 raster's top-left grid_y x grid_x
    cells, (grid_y - 1, grid_x - 1, 36): gradient magnitude binned by
    unsigned orientation."""
    gy, gx = np.gradient(gray)
    return block_normalize(kernels.cell_histograms(
        np.hypot(gx, gy), unsigned_bins(np.arctan2(gy, gx)), grid_y, grid_x))


def hog(patch: np.ndarray, template: tuple[int, int]) -> np.ndarray:
    """HOG descriptor of a 2-D luminance patch resampled to the template's
    pixel grid: the template's blocks, flattened in the order
    ``kernels.score_windows`` reads a window of a ``hog_pyramid`` level."""
    cy, cx = template
    if cy < 2 or cx < 2:
        raise PatchTooSmallError(f"template {template} smaller than 2x2 cells")
    patch = np.asarray(patch, dtype=np.float64)
    if min(patch.shape) < MIN_PATCH_SIDE:
        raise PatchTooSmallError(f"patch {patch.shape} too small")
    return hog_blocks(bilinear_resize(patch, cy * CELL, cx * CELL), cy, cx).ravel()


def hog_pyramid(gray: np.ndarray, scales) -> HogPyramid:
    """HOG blocks of a whole luminance raster at each scale, for detection
    and for exemplar negatives.

    Maps each scale s to (sh, sw, blocks): the raster resized to
    sh x sw = round(H * s) x round(W * s) (at least 1), binned into its
    (sh // CELL) x (sw // CELL) cells and block-normalized. A grid under 2x2
    cells holds no block, so its blocks array is empty.
    """
    h, w = gray.shape
    pyramid = {}
    for s in scales:
        sh, sw = max(1, int(round(h * s))), max(1, int(round(w * s)))
        grid_y, grid_x = sh // CELL, sw // CELL
        blocks = np.empty((0, 0, 4 * HOG_BINS))
        if grid_y >= 2 and grid_x >= 2:
            blocks = hog_blocks(bilinear_resize(gray, sh, sw), grid_y, grid_x)
        pyramid[s] = sh, sw, blocks
    return pyramid


def template_from_bbox(height: int, width: int) -> tuple[int, int]:
    """Cell grid nearest the bbox aspect ratio with the longer side at
    ``TEMPLATE_CELLS``."""
    if height >= width:
        cy = TEMPLATE_CELLS
        cx = int(np.clip(round(TEMPLATE_CELLS * width / height), 2, TEMPLATE_CELLS))
    else:
        cx = TEMPLATE_CELLS
        cy = int(np.clip(round(TEMPLATE_CELLS * height / width), 2, TEMPLATE_CELLS))
    return cy, cx
