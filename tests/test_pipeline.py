import json
import multiprocessing
import zlib
from dataclasses import fields

import numpy as np
import pytest

from coparse import cli, colabel, esvm, features, grouping, io, pipeline, synthgen
from coparse.core import regions_of, superpixel_adjacency
from coparse.errors import (ConfigError, InsufficientDataError, MalformedInputError,
                            SolverError)
from coparse.io import Corpus

from conftest import assert_calibration_stationary, make_image


def fit_label_model(corpus):
    """The label model trained on every image of the corpus."""
    maps = pipeline.build_maps(corpus.images)
    return pipeline.train_label_model(
        corpus.vocabulary, [pipeline.ground_truth_rows(r, maps[r.id]) for r in corpus.images])


def cosegment(corpus, config, image_ids=None):
    """Phase I on maps built for the call."""
    return pipeline.run_cosegmentation(corpus, config, pipeline.build_maps(corpus.images),
                                       image_ids)


def uniform_corpus(n_images=2):
    """Images with no shapes: one flat background region each."""
    images = []
    for i in range(n_images):
        spmap = np.zeros((16, 12), dtype=np.int64)
        spmap[8:, :] = 1  # two superpixels so grouping has an edge to merge
        gt = np.zeros((16, 12), dtype=np.int64)
        images.append(make_image(spmap, gt=gt, tags=(0,), image_id=f"flat{i}"))
    return Corpus(vocabulary=("background", "shirt"), images=tuple(images))


class TestConfig:
    def test_defaults_validate(self):
        pipeline.Config().validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.Config.from_json({"thetaa": 0.5})

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            pipeline.Config(theta=0.0).validate()
        with pytest.raises(ConfigError):
            pipeline.Config(a_min=0.7, a_max=0.6).validate()
        with pytest.raises(ConfigError):
            pipeline.Config(pairwise_mode="bogus").validate()

    def test_json_round_trip(self, tmp_path):
        cfg = pipeline.Config(theta=0.4, k_top=3, scales=(1.0, 0.5))
        path = tmp_path / "c.json"
        import json

        path.write_text(json.dumps(cfg.to_dict()))
        assert pipeline.Config.from_json(path) == cfg


class TestFolds:
    def test_sizes_differ_by_at_most_one(self):
        ids = [f"i{k}" for k in range(20)]
        assignment = pipeline.fold_assignment(ids, 10, seed=1)
        sizes = np.bincount(list(assignment.values()), minlength=10)
        assert sizes.tolist() == [2] * 10

    def test_same_seed_same_folds(self):
        ids = [f"i{k}" for k in range(13)]
        a = pipeline.fold_assignment(ids, 5, seed=9)
        b = pipeline.fold_assignment(ids, 5, seed=9)
        assert a == b

    def test_too_many_folds_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.fold_assignment(["a", "b"], 3, seed=0)


class TestEvaluate:
    def corpus_2x2(self):
        gt = np.array([[1, 1], [2, 2]])
        image = make_image(np.zeros((2, 2), dtype=int), gt=gt, tags=(1, 2), image_id="e")
        return Corpus(vocabulary=("background", "a", "b"), images=(image,))

    def test_hand_example(self):
        corpus = self.corpus_2x2()
        pred = {"e": np.array([[1, 2], [2, 2]])}
        metrics = pipeline.evaluate(pred, corpus)
        assert metrics.apa == pytest.approx(0.75)
        assert metrics.per_label_recall["a"] == pytest.approx(0.5)
        assert metrics.per_label_recall["b"] == pytest.approx(1.0)
        assert metrics.magr == pytest.approx(0.75)

    def test_perfect_prediction(self):
        corpus = self.corpus_2x2()
        pred = {"e": corpus.images[0].ground_truth.copy()}
        metrics = pipeline.evaluate(pred, corpus)
        assert metrics.apa == 1.0
        assert metrics.magr == 1.0

    def test_dimension_mismatch_rejected(self):
        corpus = self.corpus_2x2()
        with pytest.raises(MalformedInputError):
            pipeline.evaluate({"e": np.zeros((3, 3), dtype=int)}, corpus)

    def test_unmatched_image_ids_rejected(self):
        corpus = self.corpus_2x2()
        pred = {"e": corpus.images[0].ground_truth.copy()}
        with pytest.raises(MalformedInputError, match="^no images selected for evaluation$"):
            pipeline.evaluate(pred, corpus, ["nope"])
        with pytest.raises(MalformedInputError,
                           match="^no images selected for background fraction$"):
            pipeline.background_fraction(corpus, ["nope"])

    def test_all_background_equals_background_fraction(self):
        # an instance of the baseline arithmetic with fraction 0.7763 exactly
        gt = np.zeros(10000, dtype=np.int64)
        gt[:10000 - 7763] = 1
        rng = np.random.default_rng(0)
        rng.shuffle(gt)
        gt = gt.reshape(100, 100)
        image = make_image(np.zeros((100, 100), dtype=int), gt=gt, tags=(0, 1),
                           image_id="frac")
        corpus = Corpus(vocabulary=("background", "a"), images=(image,))
        pred = {"frac": np.zeros((100, 100), dtype=np.int64)}
        metrics = pipeline.evaluate(pred, corpus)
        assert metrics.apa == pipeline.background_fraction(corpus)
        assert metrics.apa == 0.7763


class TestCosegmentation:
    def test_stable_corpus_confirms_fixed_point_in_two_iterations(self):
        corpus = uniform_corpus()
        config = pipeline.Config(seed=1)
        result = cosegment(corpus, config)
        # no exemplar passes the gates, so iteration 2 confirms iteration 1
        assert result.exemplars == []
        assert result.iteration_count == 2
        assert result.converged and result.fixed_point

    def test_rerun_reproduces_partitions(self):
        corpus = uniform_corpus()
        config = pipeline.Config(seed=1)
        a = cosegment(corpus, config)
        b = cosegment(corpus, config)
        for key in a.partitions:
            assert a.partitions[key].equals(b.partitions[key])

    def test_empty_selection_rejected(self):
        corpus = uniform_corpus()
        with pytest.raises(MalformedInputError):
            cosegment(corpus, pipeline.Config(), image_ids=["nope"])

    def test_empty_selection_message(self):
        with pytest.raises(MalformedInputError) as info:
            cosegment(uniform_corpus(), pipeline.Config(), image_ids=[])
        assert str(info.value) == "no images selected for co-segmentation"

    def test_max_duality_gap_over_trained_exemplars(self, monkeypatch):
        gaps = []
        build = esvm.build_exemplar

        def recorded_build(*args):
            exemplar = build(*args)
            gaps.append(exemplar.duality_gap)
            return exemplar

        monkeypatch.setattr(esvm, "build_exemplar", recorded_build)
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=28), 2)
        result = cosegment(corpus, pipeline.Config(seed=28))
        assert len(gaps) == result.exemplars_trained > 0
        assert result.esvm_max_duality_gap == max(gaps)
        assert 0.0 < result.esvm_max_duality_gap <= 1e-6
        assert cosegment(uniform_corpus(), pipeline.Config(seed=1)).esvm_max_duality_gap == 0.0


    def test_degenerate_calibrations_counted(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=28), 2)
        config = pipeline.Config(seed=28)
        # every exemplar calibrates against one positive and its negatives,
        # so a degenerate fit has to be forced: here every score is positive
        assert cosegment(corpus, config).esvm_degenerate_calibrations == 0
        calibrate = esvm.calibrate
        monkeypatch.setattr(esvm, "calibrate",
                            lambda scores, flags: calibrate(scores, np.ones_like(flags)))
        result = cosegment(corpus, config)
        assert result.esvm_degenerate_calibrations == result.exemplars_trained > 0


    def test_every_calibration_reaches_its_fit(self, monkeypatch):
        # criterion 8's corpus; each fit sees one positive and 200 negatives
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        fits = []
        calibrate = esvm.calibrate

        def recorded(scores, flags):
            fits.append((scores, flags, calibrate(scores, flags)))
            return fits[-1][2]

        monkeypatch.setattr(esvm, "calibrate", recorded)
        result = cosegment(corpus, pipeline.Config(seed=8))
        assert len(fits) == result.exemplars_trained > 0
        for scores, flags, cal in fits:
            assert cal.alpha != 1.0 and not cal.degenerate
            assert_calibration_stationary(scores, flags, cal)


class TestColabeling:
    def test_single_background_image_all_background(self):
        corpus = uniform_corpus(n_images=1)
        config = pipeline.Config(seed=1)
        # a second image with a shirt so the appearance model has two classes
        shirt_gt = np.zeros((16, 12), dtype=np.int64)
        shirt_gt[4:12, 4:8] = 1
        pixels = np.full((16, 12, 3), 128, dtype=np.uint8)
        pixels[4:12, 4:8] = (200, 30, 30)
        train = make_image(np.zeros((16, 12), dtype=np.int64), pixels=pixels,
                           gt=shirt_gt, tags=(0, 1), image_id="train")
        full = Corpus(vocabulary=corpus.vocabulary,
                      images=corpus.images + (train,))
        maps = pipeline.build_maps(full.images)
        model = pipeline.train_label_model(
            full.vocabulary, [pipeline.ground_truth_rows(full.image_by_id(i), maps[i])
                              for i in ("flat0", "train")])
        phase1 = pipeline.run_cosegmentation(full, config, maps, ["flat0"])
        phase2 = pipeline.run_colabeling(full, phase1, model, config, maps, ["flat0"])
        assert (phase2.label_maps["flat0"] == 0).all()

    def test_output_labels_within_tags(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=13), 4)
        config = pipeline.Config(seed=13)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        phase2 = pipeline.run_colabeling(corpus, phase1, model, config, maps)
        for image in corpus.images:
            allowed = set(image.tags) | {0}
            assert set(np.unique(phase2.label_maps[image.id])) <= allowed

    def test_literal_pairwise_mode_end_to_end(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=13), 2)
        config = pipeline.Config(seed=13, pairwise_mode="literal")
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        phase2 = pipeline.run_colabeling(corpus, phase1, model, config, maps)
        assert np.isfinite(phase2.total_energy)
        metrics = pipeline.evaluate(phase2.label_maps, corpus)
        assert metrics.apa > 0.5
        # a literal appearance term charges label agreement, which some
        # expansion moves cannot represent without truncation
        assert phase2.truncated_terms > 0

    def test_joint_energy_not_worse_than_independent(self):
        from coparse import colabel
        from coparse.graphcut import energy_of

        corpus = synthgen.generate(synthgen.default_scene_spec(seed=13), 4)
        config = pipeline.Config(seed=13)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        joint = pipeline.run_colabeling(corpus, phase1, model, config, maps)

        # label each image independently, then score the merged labeling on
        # the joint multi-image graph
        source_regions = {e.id: e.source_region for e in phase1.exemplars}
        graph = colabel.build_graph(list(corpus.images), phase1.regions,
                                    phase1.propagations, source_regions, model, maps,
                                    config.pairwise_mode, config.beta_pair,
                                    config.sigmoid_sharpness, config.e_max)
        merged = np.empty(len(graph.vertex_regions), dtype=np.int64)
        for image in corpus.images:
            solo = pipeline.run_colabeling(corpus, phase1, model, config, maps, [image.id])
            for idx, region in enumerate(graph.vertex_regions):
                if region.id[0] == image.id:
                    ys, xs = np.nonzero(region.region_map == region.id[1])
                    merged[idx] = solo.label_maps[image.id][ys[0], xs[0]]
        assert joint.total_energy <= energy_of(graph.problem, merged) + 1e-9

    def test_per_image_energy_matches_plain_split(self, monkeypatch):
        from coparse import colabel

        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        config = pipeline.Config(seed=8)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        graphs = []
        build_graph = colabel.build_graph
        monkeypatch.setattr(colabel, "build_graph",
                            lambda *a: graphs.append(build_graph(*a)) or graphs[-1])
        result = pipeline.run_colabeling(corpus, phase1, model, config, maps)
        graph, = graphs
        assert graph.exterior_edges
        # reference: each image's unaries, its interior edges and half of each
        # exterior edge it touches, added term by term
        pos = graph.problem.positions(np.array([
            result.label_maps[r.id[0]][r.region_map == r.id[1]][0]
            for r in graph.vertex_regions]))
        expected = {image.id: 0.0 for image in corpus.images}
        for idx, region in enumerate(graph.vertex_regions):
            expected[region.id[0]] += float(graph.problem.unary[idx][pos[idx]])
        for u, v, table in graph.problem.edges:
            term = float(table[pos[u], pos[v]])
            image_u, image_v = graph.vertex_regions[u].id[0], graph.vertex_regions[v].id[0]
            if (u, v) in graph.interior_edges:
                expected[image_u] += term
            else:
                expected[image_u] += term / 2.0
                expected[image_v] += term / 2.0
        assert result.per_image_energy == expected
        assert sum(expected.values()) == pytest.approx(result.total_energy, rel=1e-12)


class TestCrossValidate:
    def test_small_cv_runs_and_aggregates(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 6)
        config = pipeline.Config(seed=21, fold_count=3)
        result = pipeline.cross_validate(corpus, config)
        assert len(result.folds) == 3
        apas = [o.metrics.apa for o in result.folds]
        assert result.apa_mean == pytest.approx(float(np.mean(apas)))
        assert set(result.label_maps) == {r.id for r in corpus.images}

    def test_deterministic(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)
        config = pipeline.Config(seed=21, fold_count=2)
        a = pipeline.cross_validate(corpus, config)
        b = pipeline.cross_validate(corpus, config)
        assert a.apa_mean == b.apa_mean
        assert a.magr_mean == b.magr_mean
        for key in a.label_maps:
            assert (a.label_maps[key] == b.label_maps[key]).all()


    def test_fold_models_equal_models_trained_alone(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 6)
        config = pipeline.Config(seed=21, fold_count=3)
        trained = []
        colabeling = pipeline.run_colabeling

        def recorded_colabeling(corpus, phase1, model, *args):
            # Phase II runs in the parent and takes each fold's model there
            trained.append(model)
            return colabeling(corpus, phase1, model, *args)

        monkeypatch.setattr(pipeline, "run_colabeling", recorded_colabeling)
        pipeline.cross_validate(corpus, config)
        monkeypatch.undo()
        ids = [rec.id for rec in corpus.images]
        folds = pipeline.fold_assignment(ids, config.fold_count, config.seed)
        assert len(trained) == config.fold_count
        for fold, model in enumerate(trained):
            alone = fit_label_model(Corpus(
                vocabulary=corpus.vocabulary,
                images=tuple(corpus.image_by_id(i)
                             for i in sorted(i for i in ids if folds[i] != fold))))
            got, want = model.appearance, alone.appearance
            assert (got.gamma, got.trained_labels) == (want.gamma, want.trained_labels)
            assert len(got.machines) == len(want.machines) > 0
            for (a, b, sv, coef), (a2, b2, sv2, coef2) in zip(got.machines, want.machines):
                assert (a, b) == (a2, b2)
                assert sv.tobytes() == sv2.tobytes() and coef.tobytes() == coef2.tobytes()
            for name in ("location_mean", "location_cov", "cooccurrence"):
                assert getattr(model, name).tobytes() == getattr(alone, name).tobytes()

    def test_train_label_model_replaced_by_a_closure(self, monkeypatch, tmp_path):
        """A tracer replaces ``train_label_model`` with a closure, which cannot
        be pickled; the forked worker still calls it, once per fold."""
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)
        config = pipeline.Config(seed=21, fold_count=2)
        plain = pipeline.cross_validate(corpus, config)
        calls = tmp_path / "calls"
        train = pipeline.train_label_model

        def wrapped(vocabulary, rows):
            with open(calls, "a") as f:
                f.write(f"{len(rows)}\n")
            return train(vocabulary, rows)

        monkeypatch.setattr(pipeline, "train_label_model", wrapped)
        traced = pipeline.cross_validate(corpus, config)
        assert calls.read_text().split() == ["2", "2"]
        assert traced.folds == plain.folds
        for key in plain.label_maps:
            assert traced.label_maps[key].tobytes() == plain.label_maps[key].tobytes()

    def test_worker_package_error_keeps_its_type(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)

        def no_fit(*_args):
            raise InsufficientDataError("no machine to fit")

        monkeypatch.setattr(colabel, "train_appearance", no_fit)
        with pytest.raises(InsufficientDataError, match="no machine to fit"):
            pipeline.cross_validate(corpus, pipeline.Config(seed=21, fold_count=2))

    def test_failed_fold_leaves_no_worker(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 6)

        def failing(*_args):
            raise SolverError("fold 0 fails")

        monkeypatch.setattr(grouping, "solve_multicut", failing)
        with pytest.raises(SolverError, match="fold 0 fails"):
            pipeline.cross_validate(corpus, pipeline.Config(seed=21, fold_count=3))
        assert multiprocessing.active_children() == []


class TestFeaturesBuiltOncePerCall:
    """A command builds each image's maps once, and Phase I its HOG pyramid
    and superpixel graph once per call; nothing is kept past the call."""

    @staticmethod
    def count_builds(monkeypatch, corpus):
        image_of = {rec.pixels.tobytes(): rec.id for rec in corpus.images}
        builds = {"maps": [], "pyramids": [], "graphs": []}
        image_maps, hog_pyramid = features.image_maps, features.hog_pyramid
        superpixel_graph = grouping.superpixel_graph

        def counted_maps(pixels):
            builds["maps"].append(image_of[pixels.tobytes()])
            return image_maps(pixels)

        def counted_pyramid(gray, scales):
            builds["pyramids"].append(tuple(scales))
            return hog_pyramid(gray, scales)

        def counted_graph(image):
            builds["graphs"].append(image.id)
            return superpixel_graph(image)

        monkeypatch.setattr(features, "image_maps", counted_maps)
        monkeypatch.setattr(features, "hog_pyramid", counted_pyramid)
        monkeypatch.setattr(grouping, "superpixel_graph", counted_graph)
        return builds

    def test_run_builds_once_per_image(self, monkeypatch, tmp_path):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        manifest = io.save_corpus(corpus, tmp_path / "corpus")
        ids = sorted(rec.id for rec in corpus.images)
        builds = self.count_builds(monkeypatch, corpus)
        out = tmp_path / "out"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out),
                         "--seed", "8"]) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["phase1_iterations"] >= 2 and meta["phase1_exemplars_trained"] > 0
        # the ground-truth rows, Phase I and Phase II read one build per image
        assert sorted(builds["maps"]) == sorted(builds["graphs"]) == ids
        assert builds["pyramids"] == [tuple(pipeline.Config().scales)] * len(ids)

    def test_cross_validate_builds_as_much_on_a_second_call(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)
        config = pipeline.Config(seed=21, fold_count=2)
        builds = self.count_builds(monkeypatch, corpus)
        counts = []
        for _ in range(2):
            pipeline.cross_validate(corpus, config)
            counts.append({name: len(calls) for name, calls in builds.items()})
            for calls in builds.values():
                calls.clear()
        # maps once per image for every fold's ground-truth rows, Phase I and
        # Phase II; a pyramid and a graph in the fold that tests the image
        assert counts[0] == counts[1] == {"maps": 4, "pyramids": 4, "graphs": 4}


class TestRegionsBuiltOncePerPartition:
    """Phase I builds an image's regions when its partition changes and
    Phase II takes the final ones; ``colabel`` builds them once per image."""

    @staticmethod
    def count_builds(monkeypatch):
        built = []

        def counted(image, partition):
            built.append((image.id, partition.assignment.tobytes()))
            return regions_of(image, partition)

        from coparse import colabel
        for module in (pipeline, cli, colabel):
            monkeypatch.setattr(module, "regions_of", counted, raising=False)
        return built

    def test_run_builds_the_regions_of_each_changed_partition(self, monkeypatch, tmp_path):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        manifest = io.save_corpus(corpus, tmp_path / "corpus")
        built = self.count_builds(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out),
                         "--seed", "8"]) == 0
        changed = json.loads((out / "run-meta.json").read_text())["phase1_images_changed"]
        assert changed[0] == 3 and changed[-1] == 0
        assert len(built) == sum(changed) and len(set(built)) == len(built)

    def test_colabel_builds_the_regions_of_each_image_once(self, monkeypatch, tmp_path):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 2)
        manifest = io.save_corpus(corpus, tmp_path / "corpus")
        assert cli.main(["esvm", "--manifest", str(manifest), "--out", str(tmp_path / "p1"),
                         "--seed", "8"]) == 0
        built = self.count_builds(monkeypatch)
        assert cli.main(["colabel", "--manifest", str(manifest), "--phase1",
                         str(tmp_path / "p1"), "--out", str(tmp_path / "out")]) == 0
        assert sorted(image_id for image_id, _ in built) == [rec.id for rec in corpus.images]


def _instance_from_scratch(image, propagations):
    """The grouping instance assembled from the image alone, with no shared structure."""
    spmap = image.superpixel_map
    m = int(spmap.max()) + 1
    pairs, dflags = superpixel_adjacency(spmap, image.contour_map)
    counts = np.bincount(spmap.ravel(), minlength=m)
    masks = []
    for prop in propagations:
        mh, mw = prop.mask.shape
        under = np.bincount(spmap[prop.y:prop.y + mh, prop.x:prop.x + mw][prop.mask],
                            minlength=m)
        covered = np.flatnonzero(2 * under >= counts)
        if covered.size >= 2:
            masks.append((frozenset(int(i) for i in covered),
                          float(counts[covered].sum()) / spmap.size))
    return grouping.MulticutInstance(
        node_count=m, edges=tuple((int(u), int(v), int(d)) for (u, v), d in zip(pairs, dflags)),
        mask_constraints=tuple(masks))


def test_instances_equal_instances_from_scratch(monkeypatch):
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
    build = grouping.instance_for_image
    checked = []

    def checked_build(image, propagations, graph):
        instance = build(image, propagations, graph)
        assert instance == _instance_from_scratch(image, propagations)
        checked.append(len(instance.mask_constraints))
        return instance

    monkeypatch.setattr(grouping, "instance_for_image", checked_build)
    cosegment(corpus, pipeline.Config(seed=8))
    assert len(checked) >= 6 and max(checked) > 0


# ---------------------------------------------------------------------------
# Phase I memo: a run caches multicuts and exemplars on their exact inputs.
# The reference is the uncached loop, which solves, trains and propagates
# from scratch on every pass.
# ---------------------------------------------------------------------------

def _reference_group_all(images, propagations, config):
    partitions = {}
    for image in images:
        props = [p for p in propagations if p.target_image == image.id]
        instance = grouping.instance_for_image(image, props, grouping.superpixel_graph(image))
        partitions[image.id] = grouping.solve_multicut(instance, config.theta).partition
    return partitions


def _reference_train_and_propagate(images, partitions, config):
    maps = {image.id: features.image_maps(image.pixels) for image in images}
    exemplars = []
    for image in images:
        regions = regions_of(image, partitions[image.id])
        selected = esvm.select_regions(maps[image.id], regions, config.a_min, config.a_max,
                                       config.tau_sel, config.n_sel)
        if not selected:
            continue
        excluded = np.zeros(image.pixels.shape[:2], dtype=bool)
        for k in selected:
            excluded |= regions[k].region_map == k
        for k in selected:
            content = zlib.crc32(np.asarray(regions[k].superpixels, dtype=np.int64).tobytes())
            exemplars.append(esvm.build_exemplar(
                f"{image.id}:r{content:08x}", image, regions[k], images, excluded,
                config.lambda1, config.lambda2, config.seed, maps))
    pyramids = {image.id: features.hog_pyramid(maps[image.id].luma, config.scales)
                for image in images}
    propagations = []
    for exemplar in exemplars:
        propagations.extend(esvm.propagate(exemplar, images, pyramids, config.k_top,
                                           config.stride, config.scales))
    return exemplars, propagations


def _reference_cosegmentation(corpus, config):
    images = list(corpus.images)
    exemplars, propagations = [], []
    previous, seen, changed = None, set(), []
    iteration, converged, fixed_point = 0, False, False
    while iteration < config.max_phase1_iters:
        iteration += 1
        partitions = _reference_group_all(images, propagations, config)
        changed.append(sum(previous is None or not np.array_equal(
            partitions[i.id].assignment, previous[i.id].assignment) for i in images))
        if previous is not None and all(
                partitions[i.id].equals(previous[i.id]) for i in images):
            converged = fixed_point = True
            break
        signature = tuple(partitions[i.id].assignment.tobytes() for i in images)
        if signature in seen:
            converged = True
            previous = partitions
            exemplars, propagations = _reference_train_and_propagate(images, partitions, config)
            break
        seen.add(signature)
        previous = partitions
        exemplars, propagations = _reference_train_and_propagate(images, partitions, config)
    regions = {image.id: regions_of(image, previous[image.id]) for image in images}
    return pipeline.Phase1Result(partitions=previous, regions=regions, exemplars=exemplars,
                                 propagations=propagations, iteration_count=iteration,
                                 converged=converged, fixed_point=fixed_point,
                                 images_changed=tuple(changed))


class _CallLog:
    """The inputs of every solve_multicut, build_exemplar and propagate call."""

    def __init__(self, monkeypatch):
        self.solves, self.builds, self.propagations = [], [], []
        self.solutions = []      # what each solve_multicut call returned
        self.first_region = {}   # exemplar id -> region id of its first build
        solve, build, propagate = grouping.solve_multicut, esvm.build_exemplar, esvm.propagate

        def counted_solve(instance, theta=0.5):
            self.solves.append((instance, theta))
            self.solutions.append(solve(instance, theta))
            return self.solutions[-1]

        def counted_build(exemplar_id, image, region, corpus_images, excluded,
                          lam1, lam2, seed, maps):
            key = (exemplar_id, image.id, region.superpixels, excluded.tobytes(),
                   tuple(rec.id for rec in corpus_images), lam1, lam2, seed)
            self.builds.append(key)
            self.first_region.setdefault(exemplar_id, region.id)
            return build(exemplar_id, image, region, corpus_images, excluded,
                         lam1, lam2, seed, maps)

        def counted_propagate(exemplar, corpus_images, pyramids, k=5, stride=8,
                              scales=(1.0, 0.8, 1.25)):
            self.propagations.append((
                exemplar.id, exemplar.w.tobytes(), exemplar.alpha, exemplar.beta,
                exemplar.mask.tobytes(), tuple(rec.id for rec in corpus_images),
                k, stride, tuple(scales)))
            return propagate(exemplar, corpus_images, pyramids, k, stride, scales)

        monkeypatch.setattr(grouping, "solve_multicut", counted_solve)
        monkeypatch.setattr(esvm, "build_exemplar", counted_build)
        monkeypatch.setattr(esvm, "propagate", counted_propagate)

    def repeats(self):
        return tuple(len(calls) - len(set(calls))
                     for calls in (self.solves, self.builds, self.propagations))


def _assert_same_records(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
            else:
                assert x == y, f.name


# (scene seed, image count): a 3-image corpus whose Phase I closes an orbit,
# and a 2-image corpus where a returned exemplar's region kept its
# superpixels but moved to another index since the exemplar was first built
MEMO_CASES = {"closed-orbit": (34, 3), "region-index-change": (28, 2)}


@pytest.fixture(scope="module", params=sorted(MEMO_CASES))
def phase1_runs(request):
    seed, n_images = MEMO_CASES[request.param]
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=seed), n_images)
    config = pipeline.Config(seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        reference_log = _CallLog(mp)
        reference = _reference_cosegmentation(corpus, config)
    with pytest.MonkeyPatch.context() as mp:
        log = _CallLog(mp)
        result = cosegment(corpus, config)
    # the corpus shows the case it stands for, and the uncached loop repeats work
    if request.param == "closed-orbit":
        assert reference.converged and not reference.fixed_point
    else:
        assert any(ex.source_region != reference_log.first_region[ex.id]
                   for ex in reference.exemplars)
    assert all(reference_log.repeats())
    return reference, reference_log, result, log


class TestPhase1Memo:
    def test_no_call_repeats_its_inputs(self, phase1_runs):
        _, _, _, log = phase1_runs
        assert log.repeats() == (0, 0, 0)

    def test_result_equals_uncached_loop(self, phase1_runs):
        reference, _, result, _ = phase1_runs
        assert result.partitions.keys() == reference.partitions.keys()
        for image_id, partition in reference.partitions.items():
            assert result.partitions[image_id].equals(partition)
        _assert_same_records(result.exemplars, reference.exemplars)
        _assert_same_records(result.propagations, reference.propagations)
        assert (result.iteration_count, result.converged, result.fixed_point) == \
            (reference.iteration_count, reference.converged, reference.fixed_point)
        assert result.images_changed == reference.images_changed
        assert len(result.images_changed) == result.iteration_count
        assert (result.images_changed[-1] == 0) == result.fixed_point

    def test_counts_split_the_uncached_calls(self, phase1_runs):
        _, reference_log, result, log = phase1_runs
        assert result.multicuts_solved == len(log.solves)
        assert result.multicuts_solved + result.multicuts_reused == len(reference_log.solves)
        assert result.exemplars_trained == len(log.builds)
        assert result.exemplars_trained + result.exemplars_reused == len(reference_log.builds)

    def test_multicut_counters_sum_the_solves(self, phase1_runs):
        _, _, result, log = phase1_runs
        solutions = log.solutions
        assert result.multicut_lp_solves == sum(s.lp_solves for s in solutions)
        assert result.multicut_nodes == sum(s.nodes for s in solutions)
        assert result.multicut_cuts == sum(s.cuts for s in solutions)
        assert result.multicuts_unproven == sum(not s.proven_optimal for s in solutions) == 0
        assert result.multicut_cuts > 0 and result.multicut_nodes >= result.multicuts_solved
