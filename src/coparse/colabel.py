"""Label models and the multi-image labeling graph.

The per-region singleton energy combines a one-vs-one kernel-SVM appearance
vote with a per-label location Gaussian. Interior edges couple adjacent
regions of one image through appearance compatibility and the pointwise
mutual information of a smoothed label co-occurrence table; exterior edges
couple regions of different images that were matched by a propagated mask.
All energy tables are min-shifted per edge to be non-negative and clamped,
which leaves the MAP labeling unchanged.

Each table is built by broadcasting over the candidate label arrays of its
vertices: a region's location energies for the whole vocabulary come from
one batched solve, computed once per region and shared by its unary and its
exterior edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import features, kernels
from .core import (BACKGROUND, ImageRecord, Region, labels_under_mask, region_moments,
                   superpixel_adjacency)
from .errors import InsufficientDataError, UnknownLabelError
from .graphcut import LabelingProblem

WIDE_PRIOR_VARIANCE = 0.25   # location prior for labels unseen in training


# ---------------------------------------------------------------------------
# Appearance: one-vs-one kernel SVM on 40-bin histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppearanceModel:
    gamma: float
    trained_labels: tuple[int, ...]
    # per label pair (a, b) with a < b: support vectors and signed dual coefs
    machines: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    vocab_size: int
    max_duality_gap: float   # of the machines' dual solves; 0 with no machine
    # every machine's support vectors, stacked once; machine i owns the rows
    # bounds[i]:bounds[i + 1]
    support: np.ndarray = field(init=False, repr=False)
    bounds: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        svs = [sv for _, _, sv, _ in self.machines]
        object.__setattr__(self, "support", np.vstack(svs) if svs else np.empty((0, 0)))
        sizes = [len(sv) for sv in svs]
        object.__setattr__(self, "bounds", tuple(np.cumsum([0] + sizes).tolist()))

    def decisions(self, hist: np.ndarray) -> np.ndarray:
        """Every machine's decision value on one histogram; one kernel row
        against the stacked support vectors serves them all."""
        k = np.exp(-self.gamma * features.chi_square_matrix(hist[None, :], self.support)[0])
        return np.array([float(coef @ k[lo:hi]) for (_, _, _, coef), lo, hi
                         in zip(self.machines, self.bounds, self.bounds[1:])])

    def votes(self, hist: np.ndarray) -> np.ndarray:
        """Fraction of pairwise votes per label; sums to 1 over trained labels."""
        s = np.zeros(self.vocab_size)
        if len(self.trained_labels) == 1:
            s[self.trained_labels[0]] = 1.0
            return s
        for (a, b, _, _), decision in zip(self.machines, self.decisions(hist)):
            s[a if decision >= 0 else b] += 1.0
        return s / len(self.machines)


def train_appearance(hists: np.ndarray, labels: np.ndarray, vocab_size: int,
                     c: float = 10.0) -> AppearanceModel:
    """One-against-one decomposition with a chi-square RBF kernel."""
    hists = np.asarray(hists, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    present = sorted(set(int(v) for v in labels))
    if not present:
        raise InsufficientDataError("no training regions")
    dists = features.chi_square_matrix(hists, hists)
    med = float(np.median(dists[np.triu_indices(len(hists), k=1)])) if len(hists) > 1 else 0.0
    gamma = 1.0 / med if med > 1e-12 else 1.0
    machines = []
    gaps = []
    for i, a in enumerate(present):
        for b in present[i + 1:]:
            sel = (labels == a) | (labels == b)
            idx = np.flatnonzero(sel)
            y = np.where(labels[idx] == a, 1.0, -1.0)
            k = np.exp(-gamma * dists[np.ix_(idx, idx)])
            alpha, gap = kernels.solve_box_qp(k * np.outer(y, y), c)
            gaps.append(gap)
            keep = alpha > 1e-12
            machines.append((a, b, hists[idx[keep]], alpha[keep] * y[keep]))
    return AppearanceModel(gamma=gamma, trained_labels=tuple(present),
                           machines=tuple(machines), vocab_size=vocab_size,
                           max_duality_gap=max(gaps, default=0.0))


# ---------------------------------------------------------------------------
# Location Gaussians and co-occurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelModel:
    vocabulary: tuple[str, ...]
    appearance: AppearanceModel
    location_mean: np.ndarray        # (V, 2)
    location_cov: np.ndarray         # (V, 2, 2)
    cooccurrence: np.ndarray         # (V, V), symmetric positive

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


def fit_location(centroids_by_label: dict[int, np.ndarray], vocab_size: int,
                 ridge: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Per-label mean and ridge-regularized sample covariance of centroids.

    Labels with no samples get a wide centered prior so the model stays total
    over the vocabulary.
    """
    means = np.tile([0.5, 0.5], (vocab_size, 1))
    covs = np.tile(WIDE_PRIOR_VARIANCE * np.eye(2), (vocab_size, 1, 1))
    for label, pts in centroids_by_label.items():
        if not 0 <= label < vocab_size:
            raise UnknownLabelError(f"label {label} outside vocabulary")
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        if pts.shape[0] == 0:
            continue
        means[label] = pts.mean(axis=0)
        if pts.shape[0] > 1:
            covs[label] = np.cov(pts.T, ddof=1) + ridge * np.eye(2)
        else:
            covs[label] = ridge * np.eye(2)
    return means, covs


def location_energies(model: LabelModel, point) -> np.ndarray:
    """-log of every label's mode-normalized location Gaussian at ``point``.

    Entry l is 0.5 * the squared Mahalanobis distance from ``point`` to label
    l's mean, so exp(-entry) is in (0, 1] and exactly 1 at the mean.
    Background is exempt (0): it has no canonical location, and the centroids
    of whole training-set background components badly misstate where
    background subregions produced by grouping may sit.
    """
    diff = np.asarray(point, dtype=np.float64) - model.location_mean
    solved = np.linalg.solve(model.location_cov, diff[:, :, None])[:, :, 0]
    energies = 0.5 * np.vecdot(diff, solved)
    energies[BACKGROUND] = 0.0
    return energies


def fit_cooccurrence(label_pairs: list[tuple[int, int]], vocab_size: int) -> np.ndarray:
    """Laplace-smoothed frequency of labels occurring as region neighbors."""
    counts = np.zeros((vocab_size, vocab_size))
    for a, b in label_pairs:
        lo, hi = min(a, b), max(a, b)
        counts[lo, hi] += 1.0
    total = len(label_pairs)
    psi = (counts + 1.0) / (total + vocab_size * vocab_size)
    upper = np.triu(psi)
    return upper + np.triu(upper, k=1).T


# ---------------------------------------------------------------------------
# Ground-truth regions for model fitting
# ---------------------------------------------------------------------------

def ground_truth_regions(maps: features.ImageMaps, comp: np.ndarray, comp_labels: np.ndarray
                         ) -> list[tuple[int, np.ndarray, tuple[float, float]]]:
    """(label, histogram, centroid) per ground-truth component.

    ``maps`` are the image's maps and ``comp, comp_labels`` is
    ``label_components`` of its ground truth; every component's histogram
    comes from one ``features.region_histograms`` pass.
    """
    count = comp_labels.size
    hists = features.region_histograms(maps, comp, count)
    _, rows, cols = region_moments(comp, count)
    return [(int(comp_labels[cid]), hists[cid], (rows[cid], cols[cid])) for cid in range(count)]


def image_label_pairs(comp: np.ndarray, comp_labels: np.ndarray) -> list[tuple[int, int]]:
    """Neighbor label pairs of one training image, deduplicated.

    Each adjacent component pair contributes its label pair once per image,
    and every present label contributes a self pair (patches inside one
    region adjoin each other). Deduplication keeps the counts presence-based,
    so large-area labels do not drown the table. ``comp, comp_labels`` is
    ``label_components`` of the image's ground truth.
    """
    pairs, _ = superpixel_adjacency(comp)
    found = {(int(l), int(l)) for l in comp_labels}
    found.update((int(comp_labels[u]), int(comp_labels[v])) for u, v in pairs)
    return sorted((min(a, b), max(a, b)) for a, b in found)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def unary_energies(votes: np.ndarray, location: np.ndarray,
                   sharpness: float, e_max: float) -> np.ndarray:
    """-log(sig(a(vote - 0.5))) - log(G) per candidate, clamped to [0, e_max];
    ``location`` holds the -log(G) terms (``location_energies``)."""
    sigmoid = np.logaddexp(0.0, -sharpness * (votes - 0.5))
    return np.minimum(np.maximum(sigmoid + location, 0.0), e_max)


def pair_appearance(chi2: float, cands_m: np.ndarray, cands_n: np.ndarray,
                    beta_pair: float) -> np.ndarray:
    """Raw (pre-shift) appearance term of an interior or exterior edge, per
    candidate pair: 0 for equal labels, beta_pair * exp(-chi2) otherwise."""
    same = cands_m[:, None] == cands_n[None, :]
    return np.where(same, 0.0, beta_pair * float(np.exp(-chi2)))


def _shift_clamp(table: np.ndarray, e_max: float) -> np.ndarray:
    shifted = table - table.min()
    return np.minimum(shifted, e_max)


def interior_table(model: LabelModel, hist_m: np.ndarray, hist_n: np.ndarray,
                   cands_m: np.ndarray, cands_n: np.ndarray,
                   beta_pair: float, e_max: float) -> np.ndarray:
    """Appearance minus the pointwise mutual information log psi(a, b) /
    (p(a) p(b)) of the label pair, shifted and clamped; p is the row sum of
    the co-occurrence table psi. Plain -log psi mostly measures how often
    each label occurs, so each edge would pull toward background."""
    appearance = pair_appearance(features.chi_square(hist_m, hist_n), cands_m, cands_n,
                                 beta_pair)
    psi = model.cooccurrence
    p = psi.sum(axis=1)
    pmi = psi[np.ix_(cands_m, cands_n)] / (p[cands_m][:, None] * p[cands_n][None, :])
    return _shift_clamp(appearance - np.log(pmi), e_max)


def exterior_table(hist_u: np.ndarray, hist_v: np.ndarray,
                   location_u: np.ndarray, location_v: np.ndarray,
                   cands_u: np.ndarray, cands_v: np.ndarray,
                   beta_pair: float, e_max: float) -> np.ndarray:
    """Both endpoints' location energies (per candidate) plus appearance,
    shifted and clamped."""
    appearance = pair_appearance(features.chi_square(hist_u, hist_v), cands_u, cands_v,
                                 beta_pair)
    return _shift_clamp((location_u[:, None] + location_v[None, :]) + appearance, e_max)


# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoLabelGraph:
    vertex_regions: tuple[Region, ...]
    problem: LabelingProblem
    interior_edges: tuple[tuple[int, int], ...]
    exterior_edges: tuple[tuple[int, int], ...]


def match_propagation_target(mask: np.ndarray, x: int, y: int,
                             regions: list[Region],
                             min_iou: float = 0.3) -> int | None:
    """Index of the first of ``regions`` (of one partition, so sharing its region
    map) with maximal overlap/union against the placed mask, or None below
    ``min_iou`` or without overlap; MalformedInputError if the mask leaves the image."""
    ks = np.array([region.id[1] for region in regions])
    overlap = labels_under_mask(regions[0].region_map, mask, x, y, regions[0].id[0],
                                ks.max() + 1)[ks]
    iou = overlap / (np.array([region.area for region in regions]) + int(mask.sum()) - overlap)
    best = int(np.argmax(iou))
    if 0.0 < iou[best] and iou[best] >= min_iou:
        return int(ks[best])
    return None


def build_graph(images: list[ImageRecord], regions: dict[str, list[Region]],
                propagations, source_regions: dict[str, tuple[str, int]],
                model: LabelModel, maps: dict[str, features.ImageMaps],
                beta_pair: float, sharpness: float, e_max: float) -> CoLabelGraph:
    """Assemble vertices, interior/exterior edges and all energy tables.

    ``regions`` holds each image's ``regions_of`` its partition by id;
    ``source_regions`` maps exemplar ids to their source region ids so each
    propagation can be anchored on its source side; ``maps`` holds each
    image's maps by id.
    """
    vertex_regions: list[Region] = []
    hists: list[np.ndarray] = []
    candidates: list[np.ndarray] = []
    interior: list[tuple[int, int]] = []
    regions_by_image = {image.id: regions[image.id] for image in images}
    for image in images:
        regs = regions_by_image[image.id]
        region_map = regs[0].region_map
        hists.extend(features.region_histograms(maps[image.id], region_map, len(regs)))
        cand = np.array(sorted(set(image.tags) | {BACKGROUND}), dtype=np.int64)
        if cand[-1] >= model.vocab_size:
            raise UnknownLabelError(f"{image.id}: tag {cand[-1]} outside the label model's "
                                    f"vocabulary")
        candidates.extend([cand] * len(regs))
        # 4-adjacent region pairs (a, b), a < b, sorted
        first = len(vertex_regions)
        pairs, _ = superpixel_adjacency(region_map)
        interior.extend((first + int(a), first + int(b)) for a, b in pairs)
        vertex_regions.extend(regs)
    vertex_of = {region.id: v for v, region in enumerate(vertex_regions)}

    unary, locations = [], []
    for region, hist, cand in zip(vertex_regions, hists, candidates):
        location = location_energies(model, region.centroid)[cand]
        unary.append(unary_energies(model.appearance.votes(hist)[cand], location,
                                    sharpness, e_max))
        locations.append(location)

    exterior_set: set[tuple[int, int]] = set()
    for prop in propagations:
        src = source_regions.get(prop.source_exemplar)
        if (src not in vertex_of or src[0] == prop.target_image
                or prop.target_image not in regions_by_image):
            continue
        target_k = match_propagation_target(prop.mask, prop.x, prop.y,
                                            regions_by_image[prop.target_image])
        if target_k is None:
            continue
        # the endpoints lie in different images, so they never coincide
        u, v = vertex_of[src], vertex_of[(prop.target_image, target_k)]
        exterior_set.add((min(u, v), max(u, v)))
    exterior = sorted(exterior_set)

    edges = [(u, v, interior_table(model, hists[u], hists[v], candidates[u], candidates[v],
                                   beta_pair, e_max)) for u, v in interior]
    edges += [(u, v, exterior_table(hists[u], hists[v], locations[u], locations[v],
                                    candidates[u], candidates[v], beta_pair, e_max))
              for u, v in exterior]

    problem = LabelingProblem(candidates=tuple(candidates), unary=tuple(unary),
                              edges=tuple(edges))
    return CoLabelGraph(vertex_regions=tuple(vertex_regions), problem=problem,
                        interior_edges=tuple(interior), exterior_edges=tuple(exterior))
