"""Corpus data model: images, superpixels, partitions, regions, propagations.

All types are immutable after construction; coordinates are normalized to
[0, 1]^2 using pixel centers ((row + 0.5) / H, (col + 0.5) / W) so location
statistics transfer across image sizes. Label 0 is the reserved background
label of the corpus vocabulary. Connected components and bounding boxes
are computed over row runs, the components with ``kernels.components``,
and a dilation is shifted ORs, so the package needs no ``scipy.ndimage``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import MalformedInputError

BACKGROUND = 0


@dataclass(frozen=True)
class ImageRecord:
    id: str
    pixels: np.ndarray          # (H, W, 3) uint8
    tags: frozenset[int]        # vocabulary indices present at image level
    superpixel_map: np.ndarray  # (H, W) int64, values 0..M-1
    contour_map: np.ndarray     # (H, W) bool
    ground_truth: np.ndarray | None = None  # (H, W) int64 vocabulary indices


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of superpixels to regions, canonical first-occurrence labels."""

    assignment: np.ndarray  # (M,) int64, values 0..K-1

    @property
    def k(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    @staticmethod
    def from_assignment(assignment) -> "Partition":
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise MalformedInputError("partition assignment must be a nonempty 1-D array")
        _, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
        order = np.argsort(np.argsort(first, kind="stable"), kind="stable")
        canon = order[inverse]
        canon.flags.writeable = False
        return Partition(assignment=canon)

    def equals(self, other: "Partition") -> bool:
        return np.array_equal(self.assignment, other.assignment)


@dataclass(frozen=True)
class Region:
    """One region of a partition, a view of the partition's region map: its
    pixels are those where ``region_map == id[1]``."""

    id: tuple[str, int]                 # (image id, region index)
    superpixels: tuple[int, ...]
    region_map: np.ndarray              # (H, W) int64, read-only, shared by the partition
    bbox: tuple[slice, slice]           # row and column bounds of the region's pixels
    area: int                           # pixel count
    centroid: tuple[float, float]       # normalized (row, col)

    @property
    def area_fraction(self) -> float:
        return self.area / self.region_map.size


@dataclass(frozen=True)
class PropagationRecord:
    """A detection mask placed into a target image by one exemplar."""

    source_exemplar: str
    target_image: str
    x: int                               # column of the mask's top-left
    y: int                               # row of the mask's top-left
    mask: np.ndarray                     # (h, w) bool
    score: float                         # calibrated detection score in (0, 1)


def check_placement(mask_shape: tuple[int, int], x: int, y: int,
                    image_shape: tuple[int, int], image_id: str) -> None:
    """MalformedInputError unless a mask of ``mask_shape`` with its top-left
    pixel at column x, row y lies wholly inside the image."""
    (mh, mw), (h, w) = mask_shape, image_shape
    if x < 0 or y < 0 or x + mw > w or y + mh > h:
        raise MalformedInputError(f"{image_id}: a {mh}x{mw} mask placed at "
                                  f"x={x}, y={y} leaves the {h}x{w} image")


def labels_under_mask(label_map: np.ndarray, mask: np.ndarray, x: int, y: int,
                      image_id: str, minlength: int) -> np.ndarray:
    """Pixel count of each value of ``label_map`` under ``mask`` placed with
    its top-left pixel at column x, row y; ``check_placement`` first."""
    check_placement(mask.shape, x, y, label_map.shape, image_id)
    mh, mw = mask.shape
    return np.bincount(label_map[y:y + mh, x:x + mw][np.asarray(mask, dtype=bool)],
                       minlength=minlength)


def validate_image_record(record: ImageRecord, vocabulary_size: int | None = None) -> None:
    """Check the full set of raster invariants; raise MalformedInputError."""
    px = record.pixels
    if px.ndim != 3 or px.shape[2] != 3 or px.dtype != np.uint8:
        raise MalformedInputError(f"{record.id}: pixels must be (H, W, 3) uint8")
    h, w = px.shape[:2]
    if h < 2 or w < 2:   # the features take a gradient along both axes
        raise MalformedInputError(f"{record.id}: image is {h}x{w} pixels, under 2x2")
    sp = record.superpixel_map
    if sp.shape != (h, w):
        raise MalformedInputError(f"{record.id}: superpixel map shape mismatch")
    if record.contour_map.shape != (h, w):
        raise MalformedInputError(f"{record.id}: contour map shape mismatch")
    # ids must run 0..M-1 with none missing
    if sp.min() != 0:
        raise MalformedInputError(f"{record.id}: superpixel ids must start at 0")
    counts = np.bincount(sp.ravel())
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise MalformedInputError(f"{record.id}: superpixel ids not contiguous (missing {missing})")
    # 4-connectivity: each id must form a single connected component
    _, comp_values = label_components(sp)
    bad = np.flatnonzero(np.bincount(comp_values, minlength=counts.size) != 1)
    if bad.size:
        raise MalformedInputError(f"{record.id}: superpixel {int(bad[0])} is not 4-connected")
    gt = record.ground_truth
    if gt is not None:
        if gt.shape != (h, w):
            raise MalformedInputError(f"{record.id}: ground truth shape mismatch")
        if vocabulary_size is not None and (gt.min() < 0 or gt.max() >= vocabulary_size):
            raise MalformedInputError(f"{record.id}: ground truth label outside vocabulary")
    if vocabulary_size is not None:
        for tag in record.tags:
            if not 0 <= tag < vocabulary_size:
                raise MalformedInputError(f"{record.id}: tag {tag} outside vocabulary")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values along a row of a raster begins: at
    every row start and wherever a pixel differs from its left neighbour."""
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = values[:, 1:] != values[:, :-1]
    return starts


def label_components(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected components of a non-negative integer raster.

    Returns (component map, value per component). Components are numbered
    by value, then by their first pixel in raster order. The nodes are the
    row runs, numbered in raster order, so a component's first run holds
    its first pixel. Two vertically adjacent runs of one value overlap in a
    column where one of the two starts, so joining the equal pixel pairs
    where either starts a run links every such pair of runs;
    ``kernels.components`` then labels each run with the smallest run of its
    component, which is the component's first.
    """
    h, w = values.shape
    starts = _run_starts(values)
    run = np.cumsum(starts).reshape(h, w) - 1
    joins = (values[:-1] == values[1:]) & (starts[:-1] | starts[1:])
    comp = kernels.components(int(run[-1, -1]) + 1, run[:-1][joins], run[1:][joins])
    first = np.flatnonzero(comp == np.arange(comp.size))   # each component's first run
    comp_values = values[starts][first].astype(np.int64)
    order = np.lexsort((first, comp_values))
    rank = np.empty(comp.size, dtype=np.int64)
    rank[first[order]] = np.arange(first.size)
    return rank[comp][run], comp_values[order]


def dilate(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """``mask`` grown by ``iterations`` steps to the 4 neighbours of each set
    pixel; nothing outside the raster is set."""
    grown = np.array(mask, dtype=bool)
    for _ in range(iterations):
        step = grown.copy()
        step[1:] |= grown[:-1]
        step[:-1] |= grown[1:]
        step[:, 1:] |= grown[:, :-1]
        step[:, :-1] |= grown[:, 1:]
        grown = step
    return grown


def region_moments(label_map: np.ndarray, count: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel count and normalized centroid row and column of the labels
    0..count-1 of a label map, each by one ``np.bincount`` pass."""
    h, w = label_map.shape
    flat = label_map.ravel()
    n = np.bincount(flat, minlength=count)
    # whole-number sums, so exact in float64 and equal to the integer sums
    ys = np.bincount(flat, weights=np.repeat(np.arange(h), w), minlength=count)
    xs = np.bincount(flat, weights=np.tile(np.arange(w), h), minlength=count)
    return n, (ys + 0.5 * n) / n / h, (xs + 0.5 * n) / n / w


def regions_of(image: ImageRecord, partition: Partition) -> list[Region]:
    """Materialize a partition's regions as views of its one region map."""
    sp = image.superpixel_map
    m = int(sp.max()) + 1
    assignment = partition.assignment
    if assignment.shape[0] != m:
        raise MalformedInputError(
            f"{image.id}: partition length {assignment.shape[0]} != superpixel count {m}")
    region_map = assignment[sp]
    region_map.flags.writeable = False
    k = partition.k
    n, rows, cols = region_moments(region_map, k)
    # each region's bounds: min and max row and column over its row runs
    h, w = region_map.shape
    starts = np.flatnonzero(_run_starts(region_map))
    labels = region_map.ravel()[starts]
    run_rows, first_cols = np.divmod(starts, w)
    last_cols = (np.append(starts[1:], h * w) - 1) % w   # a run ends where the next starts
    top, left = np.full(k, h), np.full(k, w)
    bottom, right = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    np.minimum.at(top, labels, run_rows)
    np.maximum.at(bottom, labels, run_rows)
    np.minimum.at(left, labels, first_cols)
    np.maximum.at(right, labels, last_cols)
    boxes = [(slice(t, b + 1), slice(l, r + 1)) for t, b, l, r
             in zip(top.tolist(), bottom.tolist(), left.tolist(), right.tolist())]
    # region i's superpixels, ascending, are members[bounds[i]:bounds[i + 1]]
    members = np.argsort(assignment, kind="stable").tolist()
    bounds = np.concatenate([[0], np.cumsum(np.bincount(assignment, minlength=k))]).tolist()
    n, rows, cols = n.tolist(), rows.tolist(), cols.tolist()
    return [Region(id=(image.id, i),
                   superpixels=tuple(members[bounds[i]:bounds[i + 1]]),
                   region_map=region_map, bbox=boxes[i], area=n[i],
                   centroid=(rows[i], cols[i]))
            for i in range(k)]


def superpixel_adjacency(spmap: np.ndarray, contour: np.ndarray | None = None):
    """4-adjacent superpixel pairs, optionally flagged by boundary contours.

    Returns (pairs, flags): pairs is (P, 2) int64 with u < v sorted
    lexicographically; flags[i] is 1 iff any contour pixel lies on either
    side of the shared boundary of pair i (all zeros when contour is None).
    """
    m = int(spmap.max()) + 1
    a_h, b_h = spmap[:, :-1], spmap[:, 1:]
    a_v, b_v = spmap[:-1, :], spmap[1:, :]
    diff_h = a_h != b_h
    diff_v = a_v != b_v
    lo = np.concatenate([np.minimum(a_h[diff_h], b_h[diff_h]),
                         np.minimum(a_v[diff_v], b_v[diff_v])])
    hi = np.concatenate([np.maximum(a_h[diff_h], b_h[diff_h]),
                         np.maximum(a_v[diff_v], b_v[diff_v])])
    if contour is not None:
        c = contour.astype(bool)
        f_h = c[:, :-1][diff_h] | c[:, 1:][diff_h]
        f_v = c[:-1, :][diff_v] | c[1:, :][diff_v]
        flags = np.concatenate([f_h, f_v]).astype(np.int64)
    else:
        flags = np.zeros(lo.size, dtype=np.int64)
    keys = lo.astype(np.int64) * m + hi
    uniq, inverse = np.unique(keys, return_inverse=True)
    agg = np.zeros(uniq.size, dtype=np.int64)
    np.maximum.at(agg, inverse, flags)
    pairs = np.stack([uniq // m, uniq % m], axis=1)
    return pairs, agg
