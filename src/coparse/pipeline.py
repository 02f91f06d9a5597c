"""End-to-end driver: iterate Phase I to a region fixed point, run Phase II
once over the batch, and evaluate.

Phase I loops {group -> select + train exemplars -> propagate} and stops
when no image's partition changed between consecutive iterations (the
confirming pass counts as an iteration). Each run caches its multicut
solutions and its exemplars (with their propagations) on their exact
inputs, so a pass repeats no solve or training that an earlier pass of the
same run already did, and builds each image's HOG pyramid and superpixel
graph once. A new multicut instance of an image starts from the cycle
rows of the image's earlier solve; it is solved once more, from no rows,
only when that seeded optimum does not tie the image's previous partition
(``_group_all``). A command builds each image's appearance maps once
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
        # detection places its windows at int64 pixel offsets, multiples of the stride
        if self.stride > np.iinfo(np.int64).max:
            raise ConfigError(f"stride must be at most {np.iinfo(np.int64).max}, "
                              f"got {self.stride}")
        if not self.scales or any(not 0 < s <= MAX_SCALE for s in self.scales):
            raise ConfigError(f"scales must be positive and at most {MAX_SCALE}")
        if not 0.0 <= self.a_min < self.a_max <= 1.0:
            raise ConfigError("need 0 <= a_min < a_max <= 1")
        if self.tau_sel < 0 or self.e_max <= 0 or self.beta_pair < 0:
            raise ConfigError("tau_sel/e_max/beta_pair out of range")
        # Phase II's energies and expansion arcs sum terms of at most e_max
        # each, far fewer than 2**53 of them
        if not np.isfinite(self.e_max * 2.0 ** 53):
            raise ConfigError(f"e_max times 2**53 terms must be finite, got e_max = {self.e_max}")
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
    counters: dict         # what the run did, under the names ``run-meta.json`` gives it


def build_maps(images) -> dict[str, features.ImageMaps]:
    """Each image's ``features.ImageMaps`` by id."""
    return {image.id: features.image_maps(image.pixels) for image in images}


# ---------------------------------------------------------------------------
# Phase I
# ---------------------------------------------------------------------------

def _ties(solution: grouping.MulticutSolution, kept_objective: float | None) -> bool:
    """Whether a partition of objective ``kept_objective`` (None for no
    partition) ties the proven optimum ``solution``."""
    return (kept_objective is not None and solution.proven_optimal
            and kept_objective <= solution.objective + 1e-9)


def _group_all(images: list[ImageRecord], propagations, config: Config,
               solved: dict[grouping.MulticutInstance, list[grouping.MulticutSolution]],
               rows: dict[str, tuple], graphs: dict[str, grouping.SuperpixelGraph],
               previous: dict[str, Partition] | None) -> dict[str, Partition]:
    """Each image's partition: the optimum of its multicut instance, or the
    image's ``previous`` partition when the optimum is proven and the
    previous partition ties it. The previous partition is then an optimum of
    this instance too, so no image flips between tied optima.

    ``solved`` holds every solve of each instance, in order; the last is its
    answer. ``rows`` holds, by image id, the cycle rows of the first solve
    of the image's latest new instance. Every instance of an image shares
    its superpixel graph, and a cycle row holds at every multicut of that
    graph, so a new instance is solved from them: the optimum's value is
    the one a solve from no rows finds, so whether the previous partition
    ties it is too. Which of several tied optima a seeded search rounds
    first depends on its rows, so when the previous partition does not tie
    a seeded optimum, the instance is solved again from no rows and that
    solve's partition is handed on. While every solve from no rows is
    proven optimal, every partition handed on is then the one such solves
    give; a seeded optimum that the previous partition ties keeps it even
    where a solve from no rows would stop unproven at the node cap."""
    by_target: dict[str, list] = {image.id: [] for image in images}
    for prop in propagations:
        by_target[prop.target_image].append(prop)
    partitions = {}
    for image in images:
        instance = grouping.instance_for_image(image, by_target[image.id], graphs[image.id])
        if instance not in solved:
            solved[instance] = [grouping.solve_multicut(instance, config.theta,
                                                        rows.get(image.id, ()))]
            rows[image.id] = solved[instance][-1].rows
        kept = None if previous is None else previous[image.id]
        kept_objective = None if kept is None else grouping.objective_of(
            instance, kept.assignment, config.theta)
        solution = solved[instance][-1]
        if solution.rows_reused and not _ties(solution, kept_objective):
            solution = grouping.solve_multicut(instance, config.theta)
            solved[instance].append(solution)
        partitions[image.id] = kept if _ties(solution, kept_objective) else solution.partition
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
        # the selected regions' superpixels, which partition the pixels the
        # negatives exclude; the mask itself is built at the image's first miss
        excluded_key = tuple(sorted(i for k in selected for i in regions[k].superpixels))
        excluded = None
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
                if excluded is None:
                    excluded = np.isin(regions[0].region_map, selected)
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

    An image keeps its partition when its new multicut optimum ties it
    (``_group_all``), so no image flips between tied optima. Should the
    alternation still fall into a short limit cycle, a repeat of any
    earlier joint partition state closes the orbit exactly (no new regions
    can ever appear), so the loop also terminates there, reporting
    ``phase1_fixed_point`` false.

    Multicuts are cached on their instance, exemplars on (id, region
    superpixels, the selected regions' superpixels) and propagations on
    (id, region superpixels, weights, calibration); theta, the image set, the training
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
    solved: dict[grouping.MulticutInstance, list[grouping.MulticutSolution]] = {}
    rows: dict[str, tuple] = {}     # each image's cycle rows, for its next new instance
    trained: dict[tuple, esvm.Exemplar] = {}
    propagated: dict[tuple, list] = {}
    unplaceable: set[tuple] = set()
    exemplar_count = 0
    exemplars: list[esvm.Exemplar] = []
    propagations: list = []
    previous: dict[str, Partition] | None = None
    regions: dict[str, list[Region]] = {}
    states: list[tuple] = []      # each iteration's joint partition state
    iteration = 0
    converged = False
    fixed_point = False
    images_changed: list[int] = []
    while iteration < config.max_phase1_iters:
        iteration += 1
        partitions = _group_all(images, propagations, config, solved, rows, graphs, previous)
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
        converged = signature in states
        states.append(signature)
        previous = partitions
        regions = {**regions, **{image.id: regions_of(image, partitions[image.id])
                                 for image in changed}}
        exemplars, propagations = _train_and_propagate(images, regions, config, trained,
                                                       propagated, unplaceable, maps, pyramids)
        exemplar_count += len(exemplars)
        if converged:
            break
    # the orbit runs from the repeated state's first iteration to the last
    orbit = states[states.index(states[-1]):-1] if converged and not fixed_point else []
    solves = [solution for tries in solved.values() for solution in tries]
    counters = {
        "phase1_iterations": iteration,
        "phase1_converged": converged,       # ended before the cap, at a fixed point or an orbit
        "phase1_fixed_point": fixed_point,   # strict consecutive-iteration equality
        # work done vs. taken from the run's caches
        "phase1_multicuts_solved": len(solves),
        # solves again from no rows, of an instance whose seeded optimum the
        # previous partition did not tie (_group_all)
        "phase1_multicuts_resolved": len(solves) - len(solved),
        "phase1_multicuts_reused": iteration * len(images) - len(solved),
        "phase1_exemplars_trained": len(trained),
        "phase1_exemplars_reused": exemplar_count - len(trained),
        "phase1_exemplars_unplaceable": len(unplaceable),   # templates that fit no pyramid level
        "phase1_detections_kept": sum(len(props) for props in propagated.values()),
        # over the exemplars trained here, 0 with none; the relative gap is
        # each gap over max(1, its total hinge weight)
        "phase1_esvm_max_duality_gap": max(
            (ex.duality_gap for ex in trained.values()), default=0.0),
        "phase1_esvm_max_relative_duality_gap": max(
            (ex.relative_duality_gap for ex in trained.values()), default=0.0),
        "phase1_esvm_degenerate_calibrations": sum(
            ex.degenerate_calibration for ex in trained.values()),
        # per iteration, the images whose partition differs from the previous
        # iteration's (every image in the first)
        "phase1_images_changed": images_changed,
        # a closed orbit's length in iterations and the ids of the images whose
        # partition changes within it; 0 and [] at a fixed point or the cap
        "phase1_orbit_length": len(orbit),
        "phase1_cycling_images": [image.id for k, image in enumerate(images)
                                  if len({state[k] for state in orbit}) > 1],
        # sums over the multicuts solved here (not the reused ones); an
        # unproven one stopped at the node cap
        "phase1_multicut_lp_solves": sum(s.lp_solves for s in solves),
        "phase1_multicut_nodes": sum(s.nodes for s in solves),
        "phase1_multicut_cuts": sum(s.cuts for s in solves),
        "phase1_multicut_rows_reused": sum(s.rows_reused for s in solves),
        "phase1_multicuts_unproven": sum(not s.proven_optimal for s in solves),
    }
    return Phase1Result(regions, exemplars, propagations, iteration, counters)


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
    counters: dict         # what the run did, under the names ``run-meta.json`` gives it


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
    result = alpha_expansion(graph.problem, config.max_sweeps)

    # an image's regions are consecutive vertices from its region 0 on, so
    # one lookup through its region map paints it
    label_maps = {region.id[0]: result.labeling[v + region.region_map]
                  for v, region in enumerate(graph.vertex_regions) if region.id[1] == 0}

    # (image, term) pairs in term order: each vertex's unary to its image, then
    # each edge's term whole to u's image and 0.0 to v's, or half to each when
    # they differ; np.add.at adds in that order, and 0.0 leaves a sum begun at
    # 0.0 as it is. An image's regions are consecutive vertices.
    problem = graph.problem
    pos = problem.positions(result.labeling)
    image_of = np.repeat(np.arange(len(images)), [len(regions[image.id]) for image in images])
    ends = image_of[np.stack([problem.edge_u, problem.edge_v], axis=1)]
    share = np.where(ends[:, :1] == ends[:, 1:], [1.0, 0.0], 0.5)
    terms = problem.terms(pos[None])[0]
    sums = np.zeros(len(images))
    np.add.at(sums, np.concatenate([image_of, ends.ravel()]), np.concatenate(
        [terms[:image_of.size], (share * terms[image_of.size:, None]).ravel()]))
    per_image = {image.id: float(total) for image, total in zip(images, sums)}
    overruled = np.flatnonzero(pos != problem.lowest_unary())
    counters = {
        "phase2_sweeps": result.sweeps,
        "phase2_converged": result.converged,   # false when the cap stopped a moving sweep
        "phase2_truncated_terms": result.truncated_terms,   # non-submodular edge terms
        # vertices whose final label is not their lowest-unary one (the
        # expansion's start), and the pixels of their regions
        "phase2_overruled_vertices": int(overruled.size),
        "phase2_overruled_pixels": sum(int(graph.vertex_regions[v].area) for v in overruled),
        "phase2_exterior_edges": len(graph.exterior_edges),   # cross-image edges
        "phase2_move_energies": list(result.move_energies),   # after every accepted move
    }
    return Phase2Result(label_maps, result.energy, per_image, counters)


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
            phase1_converged=phase1.counters["phase1_converged"],
            counters={**phase1.counters, **phase2.counters,
                      "label_model_max_duality_gap": model.appearance.max_duality_gap}))
    apas = np.array([o.metrics.apa for o in outcomes])
    magrs = np.array([o.metrics.magr for o in outcomes])
    return CrossValidationResult(
        folds=tuple(outcomes),
        apa_mean=float(apas.mean()), apa_std=float(apas.std()),
        magr_mean=float(magrs.mean()), magr_std=float(magrs.std()),
        label_maps=label_maps)
