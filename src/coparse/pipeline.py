"""End-to-end driver: iterate Phase I to a region fixed point, run Phase II
once over the batch, and evaluate.

Phase I loops {group -> select + train exemplars -> propagate} and stops
when no image's partition changed between consecutive iterations (the
confirming pass counts as an iteration). Each run caches its multicut
solutions and its exemplars (with their propagations) on their exact
inputs, so a pass repeats no solve or training that an earlier pass of the
same run already did, and builds each image's HOG pyramid and superpixel
graph once. A command builds each image's appearance maps once
(``build_maps``) and hands them to the ground-truth rows, Phase I and
Phase II. Phase II reads three of Phase I's records, each image's final
regions, the exemplars and their propagations, builds one multi-image graph
over the corpus from them and minimizes it with alpha-expansion. Every
driver works on the whole corpus it is given: ``cross_validate`` runs the
folds one after another, each training its label model on its training
ground truth and running both phases and the evaluation on the sub-corpus
of its test images. Metric conventions: aPA
averages pixel accuracy per image; mAGR is the macro mean over labels of
per-image recall, skipping images that lack the label.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import colabel, esvm, features, grouping
from .colabel import LabelModel
from .core import BACKGROUND, ImageRecord, Partition, Region, label_components, regions_of
from .errors import ConfigError, MalformedInputError
from .graphcut import alpha_expansion
from .io import Corpus, dataclass_from_json, read_json


# detection resizes every image by each scale, so its memory and time grow
# with the square of the largest, and upsampling further adds no detail
MAX_SCALE = 4.0


@dataclass(frozen=True)
class Config:
    theta: float = 0.5
    lambda1: float = 0.5
    lambda2: float = 0.01
    k_top: int = 5
    stride: int = 8
    scales: tuple[float, ...] = (1.0, 0.8, 1.25)
    a_min: float = 0.02
    a_max: float = 0.6
    tau_sel: float = 0.05
    n_sel: int = 4
    e_max: float = 20.0
    beta_pair: float = 2.0
    # one-vs-one vote fractions cap at 2/V, so the sigmoid needs to be much
    # sharper than its formula-level default of 4 to spread the appearance
    # cue; see the energy arithmetic in colabel.unary_energies
    sigmoid_sharpness: float = 20.0
    max_phase1_iters: int = 10
    max_sweeps: int = 10
    seed: int = 0
    fold_count: int = 10

    def validate(self) -> "Config":
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ConfigError("lambda1 and lambda2 must be positive")
        # a merged negative's dual bound is lambda2 times its count, at most this many
        if not np.isfinite(self.lambda2 * esvm.NEGATIVES_PER_EXEMPLAR):
            raise ConfigError(f"lambda2 times {esvm.NEGATIVES_PER_EXEMPLAR} negatives per "
                              f"exemplar must be finite, got lambda2 = {self.lambda2}")
        if self.k_top < 0 or self.stride < 1 or self.n_sel < 0:
            raise ConfigError("k_top/n_sel must be >= 0 and stride >= 1")
        if not self.scales or any(not 0 < s <= MAX_SCALE for s in self.scales):
            raise ConfigError(f"scales must be positive and at most {MAX_SCALE}")
        if not 0.0 <= self.a_min < self.a_max <= 1.0:
            raise ConfigError("need 0 <= a_min < a_max <= 1")
        if self.tau_sel < 0 or self.e_max <= 0 or self.beta_pair < 0:
            raise ConfigError("tau_sel/e_max/beta_pair out of range")
        if self.sigmoid_sharpness <= 0:
            raise ConfigError("sigmoid_sharpness must be positive")
        if self.max_phase1_iters < 1 or self.max_sweeps < 1 or self.fold_count < 2:
            raise ConfigError("iteration caps must be >= 1 and fold_count >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self

    @staticmethod
    def from_json(path_or_dict) -> "Config":
        if isinstance(path_or_dict, dict):
            return dataclass_from_json(Config, path_or_dict, "config").validate()
        doc = read_json(path_or_dict, ConfigError, "config")
        return dataclass_from_json(Config, doc, f"config {path_or_dict}").validate()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Metrics:
    apa: float
    magr: float
    per_label_recall: dict[str, float]

    def to_dict(self) -> dict:
        return {"aPA": self.apa, "mAGR": self.magr,
                "per_label_recall": dict(sorted(self.per_label_recall.items()))}


@dataclass(frozen=True)
class Phase1Result:
    regions: dict[str, list[Region]]   # each image's ``regions_of`` its final partition
    exemplars: list[esvm.Exemplar]
    propagations: list
    iteration_count: int
    converged: bool        # terminated before the cap (fixed point or closed orbit)
    fixed_point: bool      # strict consecutive-iteration equality
    # work done vs. taken from the run's caches
    multicuts_solved: int
    multicuts_reused: int
    exemplars_trained: int
    exemplars_reused: int
    exemplars_unplaceable: int     # selected regions whose template fits no pyramid level
    detections_kept: int           # propagations of the exemplars propagated here
    esvm_max_duality_gap: float    # over the exemplars trained here; 0 with none
    esvm_degenerate_calibrations: int   # of the exemplars trained here
    # sums over the multicuts solved here (not the reused ones)
    multicut_lp_solves: int
    multicut_nodes: int
    multicut_cuts: int
    multicuts_unproven: int        # stopped by the node cap
    # per iteration, the images whose partition differs from the previous
    # iteration's (every image in the first)
    images_changed: tuple[int, ...]

    def counters(self) -> dict:
        """What the run did, under the names ``run-meta.json`` gives it."""
        return {
            "phase1_iterations": self.iteration_count,
            "phase1_converged": self.converged,
            "phase1_fixed_point": self.fixed_point,
            "phase1_multicuts_solved": self.multicuts_solved,
            "phase1_multicuts_reused": self.multicuts_reused,
            "phase1_exemplars_trained": self.exemplars_trained,
            "phase1_exemplars_reused": self.exemplars_reused,
            "phase1_exemplars_unplaceable": self.exemplars_unplaceable,
            "phase1_detections_kept": self.detections_kept,
            "phase1_esvm_max_duality_gap": self.esvm_max_duality_gap,
            "phase1_esvm_degenerate_calibrations": self.esvm_degenerate_calibrations,
            "phase1_images_changed": list(self.images_changed),
            "phase1_multicut_lp_solves": self.multicut_lp_solves,
            "phase1_multicut_nodes": self.multicut_nodes,
            "phase1_multicut_cuts": self.multicut_cuts,
            "phase1_multicuts_unproven": self.multicuts_unproven,
        }


def build_maps(images) -> dict[str, features.ImageMaps]:
    """Each image's ``features.ImageMaps`` by id."""
    return {image.id: features.image_maps(image.pixels) for image in images}


# ---------------------------------------------------------------------------
# Phase I
# ---------------------------------------------------------------------------

def _group_all(images: list[ImageRecord], propagations, config: Config,
               solved: dict[grouping.MulticutInstance, grouping.MulticutSolution],
               graphs: dict[str, grouping.SuperpixelGraph]) -> dict[str, Partition]:
    partitions = {}
    for image in images:
        props = [p for p in propagations if p.target_image == image.id]
        instance = grouping.instance_for_image(image, props, graphs[image.id])
        if instance not in solved:
            solved[instance] = grouping.solve_multicut(instance, config.theta)
        partitions[image.id] = solved[instance].partition
    return partitions


def _train_and_propagate(images: list[ImageRecord], regions_by_image: dict[str, list[Region]],
                         config: Config, trained: dict[tuple, esvm.Exemplar],
                         propagated: dict[tuple, list], unplaceable: set,
                         maps: dict[str, features.ImageMaps],
                         pyramids: dict[str, features.HogPyramid]):
    """Train and propagate each image's selected regions, through the
    run's caches. A region whose template fits no pyramid level of any
    image is skipped, as ``detect`` could place it nowhere, and its key goes
    into ``unplaceable``."""
    exemplars: list[esvm.Exemplar] = []
    propagations = []
    for image in images:
        regions = regions_by_image[image.id]
        selected = esvm.select_regions(maps[image.id], regions, config.a_min, config.a_max,
                                       config.tau_sel, config.n_sel)
        if not selected:
            continue
        excluded = np.isin(regions[0].region_map, selected)
        excluded_key = excluded.tobytes()
        for k in selected:
            # content-based id: an unchanged region retrains into the
            # identical exemplar even when other regions renumber, which
            # keeps the iteration's fixed point reachable
            content = zlib.crc32(np.asarray(regions[k].superpixels, dtype=np.int64).tobytes())
            exemplar_id = f"{image.id}:r{content:08x}"
            key = (exemplar_id, regions[k].superpixels, excluded_key)
            template = esvm.region_template(regions[k])
            if not any(esvm.fits(blocks, template)
                       for other in images for _, _, blocks in pyramids[other.id].values()):
                unplaceable.add(key)
                continue
            if key not in trained:
                trained[key] = esvm.build_exemplar(
                    exemplar_id, image, regions[k], images, excluded,
                    config.lambda1, config.lambda2, config.seed, maps, pyramids)
            exemplar = trained[key]
            # another excluded mask can leave the negatives, and so the
            # exemplar, as they were
            detector = (*key[:2], exemplar.w.tobytes(), exemplar.alpha, exemplar.beta)
            if detector not in propagated:
                propagated[detector] = esvm.propagate(exemplar, images, pyramids, config.k_top,
                                                      config.stride, config.scales)
            # the same content may sit at another region index this pass
            exemplars.append(replace(exemplar, source_region=regions[k].id))
            propagations.extend(propagated[detector])
    return exemplars, propagations


def run_cosegmentation(corpus: Corpus, config: Config,
                       maps: dict[str, features.ImageMaps]) -> Phase1Result:
    """Iterate grouping/training/propagation until regions stop changing.

    The alternation can fall into a short limit cycle instead of a fixed
    point; a repeat of any earlier joint partition state closes the orbit
    exactly (no new regions can ever appear), so the loop also terminates
    there, reporting fixed_point=False.

    Multicuts are cached on their instance, exemplars on (id, region
    superpixels, excluded mask) and propagations on (id, region
    superpixels, weights, calibration); theta, the image set, the training
    and the propagation settings are fixed within the call, so a hit
    returns what the same inputs computed. ``maps`` holds each corpus
    image's maps by id; each image's superpixel graph and HOG pyramid are
    built once, up front, and read by every iteration (the pyramids by
    detection and by the exemplars' negatives), and its regions are built
    again only in an iteration that changed its partition.
    """
    images = list(corpus.images)
    graphs = {image.id: grouping.superpixel_graph(image) for image in images}
    pyramids = {image.id: features.hog_pyramid(maps[image.id].luma, config.scales)
                for image in images}
    solved: dict[grouping.MulticutInstance, grouping.MulticutSolution] = {}
    trained: dict[tuple, esvm.Exemplar] = {}
    propagated: dict[tuple, list] = {}
    unplaceable: set[tuple] = set()
    exemplar_count = 0
    exemplars: list[esvm.Exemplar] = []
    propagations: list = []
    previous: dict[str, Partition] | None = None
    regions: dict[str, list[Region]] = {}
    seen: set[tuple] = set()
    iteration = 0
    converged = False
    fixed_point = False
    images_changed: list[int] = []
    while iteration < config.max_phase1_iters:
        iteration += 1
        partitions = _group_all(images, propagations, config, solved, graphs)
        changed = [image for image in images
                   if previous is None or not partitions[image.id].equals(previous[image.id])]
        images_changed.append(len(changed))
        if not changed:
            converged = True
            fixed_point = True
            break
        signature = tuple(partitions[i.id].assignment.tobytes() for i in images)
        # a repeated state closes the orbit; its exemplars are still refreshed
        # so their source regions exist in the returned regions
        converged = signature in seen
        seen.add(signature)
        previous = partitions
        regions = {**regions, **{image.id: regions_of(image, partitions[image.id])
                                 for image in changed}}
        exemplars, propagations = _train_and_propagate(images, regions, config, trained,
                                                       propagated, unplaceable, maps, pyramids)
        exemplar_count += len(exemplars)
        if converged:
            break
    return Phase1Result(regions=regions, exemplars=exemplars,
                        propagations=propagations, iteration_count=iteration,
                        converged=converged, fixed_point=fixed_point,
                        multicuts_solved=len(solved),
                        multicuts_reused=iteration * len(images) - len(solved),
                        exemplars_trained=len(trained),
                        exemplars_reused=exemplar_count - len(trained),
                        exemplars_unplaceable=len(unplaceable),
                        detections_kept=sum(len(props) for props in propagated.values()),
                        esvm_max_duality_gap=max(
                            (ex.duality_gap for ex in trained.values()), default=0.0),
                        esvm_degenerate_calibrations=sum(
                            ex.degenerate_calibration for ex in trained.values()),
                        multicut_lp_solves=sum(s.lp_solves for s in solved.values()),
                        multicut_nodes=sum(s.nodes for s in solved.values()),
                        multicut_cuts=sum(s.cuts for s in solved.values()),
                        multicuts_unproven=sum(not s.proven_optimal for s in solved.values()),
                        images_changed=tuple(images_changed))


# ---------------------------------------------------------------------------
# Label model fitting (supervised, on ground-truth regions)
# ---------------------------------------------------------------------------

def ground_truth_rows(image: ImageRecord, maps: features.ImageMaps
                      ) -> tuple[list, list[tuple[int, int]]]:
    """One training image's rows: (label, histogram, centroid) per
    ground-truth component, and its neighbor label pairs; ``maps`` are the
    image's maps."""
    if image.ground_truth is None:
        raise MalformedInputError(f"{image.id}: ground truth required for training")
    comp, comp_labels = label_components(image.ground_truth)
    return (colabel.ground_truth_regions(maps, comp, comp_labels),
            colabel.image_label_pairs(comp, comp_labels))


def train_label_model(vocabulary: tuple[str, ...], rows) -> LabelModel:
    """Fit the label model to the ``ground_truth_rows`` of the training
    images, taken in the order given."""
    hists, labels = [], []
    centroids: dict[int, list] = {}
    pairs: list[tuple[int, int]] = []
    for regions, image_pairs in rows:
        for label, hist, centroid in regions:
            hists.append(hist)
            labels.append(label)
            centroids.setdefault(label, []).append(centroid)
        pairs.extend(image_pairs)
    vocab_size = len(vocabulary)
    appearance = colabel.train_appearance(np.asarray(hists), np.asarray(labels), vocab_size)
    means, covs = colabel.fit_location(
        {l: np.asarray(v) for l, v in centroids.items()}, vocab_size)
    psi = colabel.fit_cooccurrence(pairs, vocab_size)
    return LabelModel(vocabulary=vocabulary, appearance=appearance,
                      location_mean=means, location_cov=covs, cooccurrence=psi)


# ---------------------------------------------------------------------------
# Phase II
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase2Result:
    label_maps: dict[str, np.ndarray]
    total_energy: float
    per_image_energy: dict[str, float]
    sweeps: int
    converged: bool          # false when the sweep cap stopped a sweep that still moved
    truncated_terms: int     # non-submodular edge terms the expansion moves truncated
    # vertices whose final label is not their lowest-unary one (the
    # expansion's start), and the pixels of their regions
    overruled_vertices: int
    overruled_pixels: int
    exterior_edges: int      # cross-image edges the propagations built
    move_energies: tuple[float, ...]   # the energy after every accepted expansion move

    def counters(self) -> dict:
        """What the run did, under the names ``run-meta.json`` gives it."""
        return {"phase2_sweeps": self.sweeps, "phase2_converged": self.converged,
                "phase2_truncated_terms": self.truncated_terms,
                "phase2_overruled_vertices": self.overruled_vertices,
                "phase2_overruled_pixels": self.overruled_pixels,
                "phase2_exterior_edges": self.exterior_edges,
                "phase2_move_energies": list(self.move_energies)}


def run_colabeling(corpus: Corpus, regions: dict[str, list[Region]],
                   exemplars: list[esvm.Exemplar], propagations: list, model: LabelModel,
                   config: Config, maps: dict[str, features.ImageMaps]) -> Phase2Result:
    """Joint MAP labeling of the corpus, painted back to label maps.

    ``regions`` holds each image's ``regions_of`` its partition by id; each
    propagation's edge starts at its exemplar's source region; ``maps``
    holds each image's maps by id.
    """
    images = corpus.images
    for image in images:
        for tag in image.tags:
            if not 0 <= tag < len(corpus.vocabulary):
                raise ConfigError(f"{image.id}: tag {tag} outside vocabulary")
    source_regions = {ex.id: ex.source_region for ex in exemplars}
    graph = colabel.build_graph(images, regions, propagations, source_regions, model, maps,
                                config.beta_pair, config.sigmoid_sharpness, config.e_max)
    result = alpha_expansion(graph.problem, max_sweeps=config.max_sweeps)

    # an image's regions are consecutive vertices from its region 0 on, so
    # one lookup through its region map paints it
    label_maps = {region.id[0]: result.labeling[v + region.region_map]
                  for v, region in enumerate(graph.vertex_regions) if region.id[1] == 0}

    # one row per image: its vertices' unaries, plus half of an edge's term for
    # each end in the image, so interior edges count whole and exterior ones half
    row = {image.id: r for r, image in enumerate(images)}
    image_of = np.array([row[region.id[0]] for region in graph.vertex_regions])
    ends = image_of[np.array([(u, v) for u, v, _ in graph.problem.edges], int).reshape(-1, 2)]
    rows = np.arange(len(images))[:, None]
    edge_weight = ((ends[:, 0] == rows) * 1.0 + (ends[:, 1] == rows)) * 0.5
    pos = graph.problem.positions(result.labeling)
    split = graph.problem.energies(np.broadcast_to(pos, (len(images), pos.size)),
                                   (image_of == rows) * 1.0, edge_weight)
    per_image = {image.id: float(split[row[image.id]]) for image in images}
    overruled = np.flatnonzero(result.labeling != graph.problem.lowest_unary())
    return Phase2Result(label_maps=label_maps, total_energy=result.energy,
                        per_image_energy=per_image, sweeps=result.sweeps,
                        converged=result.converged, truncated_terms=result.truncated_terms,
                        overruled_vertices=int(overruled.size),
                        overruled_pixels=sum(int(graph.vertex_regions[v].area)
                                             for v in overruled),
                        exterior_edges=len(graph.exterior_edges),
                        move_energies=result.move_energies)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(predictions: dict[str, np.ndarray], corpus: Corpus) -> Metrics:
    """aPA and mAGR of the predicted label maps over every corpus image."""
    accuracies = []
    recall_lists: dict[int, list[float]] = {}
    for image in corpus.images:
        gt = image.ground_truth
        if gt is None:
            raise MalformedInputError(f"{image.id}: no ground truth to evaluate against")
        pred = predictions[image.id]
        if pred.shape != gt.shape:
            raise MalformedInputError(f"{image.id}: prediction shape mismatch")
        accuracies.append(float((pred == gt).mean()))
        for label in np.unique(gt):
            mask = gt == label
            recall = float((pred[mask] == label).mean())
            recall_lists.setdefault(int(label), []).append(recall)
    per_label = {corpus.vocabulary[l]: float(np.mean(v))
                 for l, v in sorted(recall_lists.items())}
    magr = float(np.mean([np.mean(v) for _, v in sorted(recall_lists.items())]))
    return Metrics(apa=float(np.mean(accuracies)), magr=magr,
                   per_label_recall=per_label)


def background_fraction(corpus: Corpus) -> float:
    """Mean per-image background pixel fraction (the all-background aPA)."""
    fractions = [float((rec.ground_truth == BACKGROUND).mean()) for rec in corpus.images]
    return float(np.mean(fractions))


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def fold_assignment(ids: list[str], fold_count: int, seed: int) -> dict[str, int]:
    """Deterministic shuffled round-robin folds of the image ids; sizes
    differ by at most 1."""
    if fold_count > len(ids):
        raise ConfigError(f"fold_count {fold_count} exceeds image count {len(ids)}")
    rng = np.random.default_rng([seed, 0xF01D])
    order = sorted(ids)
    rng.shuffle(order)
    return {image_id: i % fold_count for i, image_id in enumerate(order)}


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    test_ids: tuple[str, ...]
    metrics: Metrics
    phase1_iterations: int
    phase1_converged: bool
    # the fold's Phase I and Phase II counters and its label model's largest
    # duality gap, as ``coparse run`` writes them; no timings
    counters: dict


@dataclass(frozen=True)
class CrossValidationResult:
    folds: tuple[FoldOutcome, ...]
    apa_mean: float
    apa_std: float
    magr_mean: float
    magr_std: float
    label_maps: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def cross_validate(corpus: Corpus, config: Config) -> CrossValidationResult:
    """Each image's maps and ground-truth rows are built once per call, up
    front, so an image without ground truth fails before any fold runs; each
    fold then trains its label model on its training rows and runs both
    phases on the sub-corpus of its test images, in corpus order."""
    ids = [rec.id for rec in corpus.images]
    assignment = fold_assignment(ids, config.fold_count, config.seed)
    maps = build_maps(corpus.images)
    # with at least two folds every image trains some fold
    rows = {rec.id: ground_truth_rows(rec, maps[rec.id]) for rec in corpus.images}
    outcomes = []
    label_maps: dict[str, np.ndarray] = {}
    for fold in range(config.fold_count):
        test = Corpus(vocabulary=corpus.vocabulary, images=tuple(
            rec for rec in corpus.images if assignment[rec.id] == fold))
        model = train_label_model(corpus.vocabulary,
                                  [rows[i] for i in sorted(ids) if assignment[i] != fold])
        phase1 = run_cosegmentation(test, config, maps)
        phase2 = run_colabeling(test, phase1.regions, phase1.exemplars, phase1.propagations,
                                model, config, maps)
        metrics = evaluate(phase2.label_maps, test)
        label_maps.update(phase2.label_maps)
        outcomes.append(FoldOutcome(
            fold=fold, test_ids=tuple(sorted(rec.id for rec in test.images)), metrics=metrics,
            phase1_iterations=phase1.iteration_count,
            phase1_converged=phase1.converged,
            counters={**phase1.counters(), **phase2.counters(),
                      "label_model_max_duality_gap": model.appearance.max_duality_gap}))
    apas = np.array([o.metrics.apa for o in outcomes])
    magrs = np.array([o.metrics.magr for o in outcomes])
    return CrossValidationResult(
        folds=tuple(outcomes),
        apa_mean=float(apas.mean()), apa_std=float(apas.std()),
        magr_mean=float(magrs.mean()), magr_std=float(magrs.std()),
        label_maps=label_maps)
