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
Phase II. Phase II builds one multi-image graph over the whole batch and
minimizes it with alpha-expansion. ``cross_validate`` trains every fold's
label model in one forked worker process while the parent runs the folds'
Phase I, since a label model reads only training ground truth and Phase I
only the test images. Metric conventions: aPA
averages pixel accuracy per image; mAGR is the macro mean over labels of
per-image recall, skipping images that lack the label.
"""

from __future__ import annotations

import math
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import colabel, esvm, features, grouping
from .colabel import LabelModel
from .core import BACKGROUND, ImageRecord, Partition, Region, label_components, regions_of
from .errors import ConfigError, MalformedInputError, SolverError
from .graphcut import alpha_expansion
from .io import Corpus, read_json


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return math.isfinite(value) if isinstance(value, float) else _is_int(value)


def _is_list_of(accepts, length=None):
    """Check for a list of ``length`` items (at least one if None), each accepted."""
    return lambda v: (isinstance(v, (list, tuple)) and (len(v) == length if length else len(v) > 0)
                      and all(accepts(s) for s in v))


# Field annotation of Config, synthgen.SceneSpec or synthgen.LabelSpec -> (check on
# the JSON value, what the message asks for); ints are accepted for float fields
# unchanged, so run-meta.json echoes them as given
_CONFIG_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (_is_list_of(_is_number), "a non-empty list of finite numbers"),
    "tuple[float, float]": (_is_list_of(_is_number, 2), "a list of 2 finite numbers"),
    "tuple[int, int]": (_is_list_of(_is_int, 2), "a list of 2 integers"),
    "tuple[int, int, int]": (_is_list_of(_is_int, 3), "a list of 3 integers"),
    "tuple[str, ...]": (_is_list_of(lambda v: isinstance(v, str)), "a non-empty list of strings"),
    "tuple[LabelSpec, ...]": (_is_list_of(lambda v: isinstance(v, dict)),
                              "a non-empty list of objects"),
}


def check_json_types(cls, doc, what: str) -> None:
    """Raise ConfigError unless ``doc`` is a JSON object whose values fit the annotations
    of the ``cls`` dataclass fields they name; other keys are left to the caller."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in doc.items():
        if key in types:
            accepts, expected = _CONFIG_TYPE_CHECKS[types[key]]
            if not accepts(value):
                raise ConfigError(f"{what} key {key!r} must be {expected}, got {value!r}")


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
    pairwise_mode: str = "smoothing"
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
        if self.k_top < 0 or self.stride < 1 or self.n_sel < 0:
            raise ConfigError("k_top/n_sel must be >= 0 and stride >= 1")
        if not self.scales or any(not 0 < s <= MAX_SCALE for s in self.scales):
            raise ConfigError(f"scales must be positive and at most {MAX_SCALE}")
        if not 0.0 <= self.a_min < self.a_max <= 1.0:
            raise ConfigError("need 0 <= a_min < a_max <= 1")
        if self.tau_sel < 0 or self.e_max <= 0 or self.beta_pair < 0:
            raise ConfigError("tau_sel/e_max/beta_pair out of range")
        if self.pairwise_mode not in ("smoothing", "literal"):
            raise ConfigError("pairwise_mode must be 'smoothing' or 'literal'")
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
            doc = path_or_dict
        else:
            doc = read_json(path_or_dict, ConfigError, "config")
        check_json_types(Config, doc, "config")
        unknown = set(doc) - {f.name for f in fields(Config)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scales" in doc:
            doc = {**doc, "scales": tuple(doc["scales"])}
        return Config(**doc).validate()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(Config)}
        out["scales"] = list(self.scales)
        return out


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
    partitions: dict[str, Partition]
    regions: dict[str, list[Region]]   # each image's ``regions_of`` its partition
    exemplars: list[esvm.Exemplar]
    propagations: list
    iteration_count: int
    converged: bool        # terminated before the cap (fixed point or closed orbit)
    fixed_point: bool      # strict consecutive-iteration equality
    # work done vs. taken from the run's caches; 0 when not computed here
    multicuts_solved: int = 0
    multicuts_reused: int = 0
    exemplars_trained: int = 0
    exemplars_reused: int = 0
    esvm_max_duality_gap: float = 0.0   # over the exemplars trained here
    esvm_degenerate_calibrations: int = 0   # of the exemplars trained here
    # sums over the multicuts solved here (not the reused ones)
    multicut_lp_solves: int = 0
    multicut_nodes: int = 0
    multicut_cuts: int = 0
    multicuts_unproven: int = 0        # stopped by the node cap
    # per iteration, the images whose partition differs from the previous
    # iteration's (every image in the first)
    images_changed: tuple[int, ...] = ()

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
            "phase1_esvm_max_duality_gap": self.esvm_max_duality_gap,
            "phase1_esvm_degenerate_calibrations": self.esvm_degenerate_calibrations,
            "phase1_images_changed": list(self.images_changed),
            "phase1_multicut_lp_solves": self.multicut_lp_solves,
            "phase1_multicut_nodes": self.multicut_nodes,
            "phase1_multicut_cuts": self.multicut_cuts,
            "phase1_multicuts_unproven": self.multicuts_unproven,
        }


def _select_images(corpus: Corpus, image_ids: list[str] | None,
                   purpose: str) -> list[ImageRecord]:
    """The corpus images named in image_ids (all when None), in corpus order.

    Raises MalformedInputError naming the purpose when none is selected.
    """
    if image_ids is None:
        images = list(corpus.images)
    else:
        wanted = set(image_ids)
        images = [rec for rec in corpus.images if rec.id in wanted]
    if not images:
        raise MalformedInputError(f"no images selected for {purpose}")
    return images


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
                         config: Config, trained: dict[tuple, tuple],
                         maps: dict[str, features.ImageMaps],
                         pyramids: dict[str, features.HogPyramid]):
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
            if key not in trained:
                exemplar = esvm.build_exemplar(
                    exemplar_id, image, regions[k], images, excluded,
                    config.lambda1, config.lambda2, config.seed, maps)
                trained[key] = exemplar, esvm.propagate(exemplar, images, pyramids,
                                                        config.k_top, config.stride,
                                                        config.scales)
            exemplar, props = trained[key]
            # the same content may sit at another region index this pass
            exemplars.append(replace(exemplar, source_region=regions[k].id))
            propagations.extend(props)
    return exemplars, propagations


def run_cosegmentation(corpus: Corpus, config: Config,
                       maps: dict[str, features.ImageMaps],
                       image_ids: list[str] | None = None) -> Phase1Result:
    """Iterate grouping/training/propagation until regions stop changing.

    The alternation can fall into a short limit cycle instead of a fixed
    point; a repeat of any earlier joint partition state closes the orbit
    exactly (no new regions can ever appear), so the loop also terminates
    there, reporting fixed_point=False.

    Multicuts are cached on their instance and exemplars on (id, region
    superpixels, excluded mask); theta, the image set, the training and the
    propagation settings are fixed within the call, so a hit returns what
    the same inputs computed. ``maps`` holds each selected image's maps by
    id; each image's superpixel graph and HOG pyramid are built once, up
    front, and read by every iteration, and its regions are built again only
    in an iteration that changed its partition.
    """
    images = _select_images(corpus, image_ids, "co-segmentation")
    graphs = {image.id: grouping.superpixel_graph(image) for image in images}
    pyramids = {image.id: features.hog_pyramid(maps[image.id].luma, config.scales)
                for image in images}
    solved: dict[grouping.MulticutInstance, grouping.MulticutSolution] = {}
    trained: dict[tuple, tuple] = {}
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
        # so their source regions exist in the returned partitions
        converged = signature in seen
        seen.add(signature)
        previous = partitions
        regions = {**regions, **{image.id: regions_of(image, partitions[image.id])
                                 for image in changed}}
        exemplars, propagations = _train_and_propagate(images, regions, config, trained,
                                                       maps, pyramids)
        exemplar_count += len(exemplars)
        if converged:
            break
    return Phase1Result(partitions=previous, regions=regions, exemplars=exemplars,
                        propagations=propagations, iteration_count=iteration,
                        converged=converged, fixed_point=fixed_point,
                        multicuts_solved=len(solved),
                        multicuts_reused=iteration * len(images) - len(solved),
                        exemplars_trained=len(trained),
                        exemplars_reused=exemplar_count - len(trained),
                        esvm_max_duality_gap=max(
                            (ex.duality_gap for ex, _ in trained.values()), default=0.0),
                        esvm_degenerate_calibrations=sum(
                            ex.degenerate_calibration for ex, _ in trained.values()),
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
    truncated_terms: int = 0   # non-submodular edge terms the expansion moves truncated

    def counters(self) -> dict:
        """What the run did, under the names ``run-meta.json`` gives it."""
        return {"phase2_sweeps": self.sweeps, "phase2_converged": self.converged,
                "phase2_truncated_terms": self.truncated_terms}


def run_colabeling(corpus: Corpus, phase1: Phase1Result, model: LabelModel,
                   config: Config, maps: dict[str, features.ImageMaps],
                   image_ids: list[str] | None = None) -> Phase2Result:
    """Joint MAP labeling of the whole batch, painted back to label maps;
    ``maps`` holds each selected image's maps by id."""
    images = _select_images(corpus, image_ids, "co-labeling")
    for image in images:
        for tag in image.tags:
            if not 0 <= tag < len(corpus.vocabulary):
                raise ConfigError(f"{image.id}: tag {tag} outside vocabulary")
    source_regions = {ex.id: ex.source_region for ex in phase1.exemplars}
    graph = colabel.build_graph(images, phase1.regions, phase1.propagations,
                                source_regions, model, maps, config.pairwise_mode,
                                config.beta_pair, config.sigmoid_sharpness,
                                config.e_max)
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
    return Phase2Result(label_maps=label_maps, total_energy=result.energy,
                        per_image_energy=per_image, sweeps=result.sweeps,
                        converged=result.converged, truncated_terms=result.truncated_terms)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(predictions: dict[str, np.ndarray], corpus: Corpus,
             image_ids: list[str] | None = None) -> Metrics:
    images = _select_images(corpus, image_ids, "evaluation")
    accuracies = []
    recall_lists: dict[int, list[float]] = {}
    for image in images:
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


def background_fraction(corpus: Corpus, image_ids: list[str] | None = None) -> float:
    """Mean per-image background pixel fraction (the all-background aPA)."""
    images = _select_images(corpus, image_ids, "background fraction")
    fractions = [float((rec.ground_truth == BACKGROUND).mean()) for rec in images]
    return float(np.mean(fractions))


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def fold_assignment(image_ids: list[str], fold_count: int, seed: int) -> dict[str, int]:
    """Deterministic shuffled round-robin folds; sizes differ by at most 1."""
    if fold_count > len(image_ids):
        raise ConfigError(f"fold_count {fold_count} exceeds image count {len(image_ids)}")
    rng = np.random.default_rng([seed, 0xF01D])
    order = sorted(image_ids)
    rng.shuffle(order)
    return {image_id: i % fold_count for i, image_id in enumerate(order)}


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    test_ids: tuple[str, ...]
    metrics: Metrics
    phase1_iterations: int
    phase1_converged: bool
    # the fold's Phase I and Phase II counters and its label model's
    # sweep-capped machines, as ``coparse run`` writes them; no timings
    counters: dict


@dataclass(frozen=True)
class CrossValidationResult:
    folds: tuple[FoldOutcome, ...]
    apa_mean: float
    apa_std: float
    magr_mean: float
    magr_std: float
    label_maps: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def _fold_model(vocabulary: tuple[str, ...], rows) -> LabelModel:
    """``train_label_model`` looked up when called: the pool pickles this
    function by name, which works even while ``train_label_model`` is
    replaced by a closure (as a tracer does)."""
    return train_label_model(vocabulary, rows)


def cross_validate(corpus: Corpus, config: Config) -> CrossValidationResult:
    """Each image's maps and ground-truth rows are built once per call, up
    front, so an image without ground truth fails before any fold runs.

    A fold's label model reads only its training rows and its Phase I only
    its test images, so the models train in one forked worker process while
    the parent runs Phase I, and each fold's Phase II waits only for its own
    model. If the worker dies, a ``SolverError`` says so; a package error
    raised in it reaches the caller with its own type. On any error the
    models not yet started are dropped and the worker is joined.
    """
    ids = [rec.id for rec in corpus.images]
    assignment = fold_assignment(ids, config.fold_count, config.seed)
    maps = build_maps(corpus.images)
    # with at least two folds every image trains some fold
    rows = {rec.id: ground_truth_rows(rec, maps[rec.id]) for rec in corpus.images}
    pool = ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork"))
    try:
        models = [pool.submit(_fold_model, corpus.vocabulary,
                              [rows[i] for i in sorted(ids) if assignment[i] != fold])
                  for fold in range(config.fold_count)]
        outcomes = []
        label_maps: dict[str, np.ndarray] = {}
        for fold in range(config.fold_count):
            test_ids = sorted(i for i in ids if assignment[i] == fold)
            phase1 = run_cosegmentation(corpus, config, maps, test_ids)
            model = models[fold].result()
            phase2 = run_colabeling(corpus, phase1, model, config, maps, test_ids)
            metrics = evaluate(phase2.label_maps, corpus, test_ids)
            label_maps.update(phase2.label_maps)
            outcomes.append(FoldOutcome(
                fold=fold, test_ids=tuple(test_ids), metrics=metrics,
                phase1_iterations=phase1.iteration_count,
                phase1_converged=phase1.converged,
                counters={**phase1.counters(), **phase2.counters(),
                          "label_model_sweep_capped_machines": model.appearance.sweep_capped}))
    except BrokenProcessPool as exc:
        raise SolverError(f"label model worker stopped: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)
    apas = np.array([o.metrics.apa for o in outcomes])
    magrs = np.array([o.metrics.magr for o in outcomes])
    return CrossValidationResult(
        folds=tuple(outcomes),
        apa_mean=float(apas.mean()), apa_std=float(apas.std()),
        magr_mean=float(magrs.mean()), magr_std=float(magrs.std()),
        label_maps=label_maps)
