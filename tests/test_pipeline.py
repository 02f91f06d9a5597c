import json
import zlib
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coparse import cli, colabel, esvm, features, graphcut, grouping, io, pipeline, synthgen
from coparse.core import Partition, PropagationRecord, regions_of, superpixel_adjacency
from coparse.errors import (ConfigError, InsufficientDataError, MalformedInputError,
                            SolverError)
from coparse.io import Corpus

from conftest import assert_calibration_stationary, make_image


def fit_label_model(corpus):
    """The label model trained on every image of the corpus."""
    maps = pipeline.build_maps(corpus.images)
    return pipeline.train_label_model(
        corpus.vocabulary, [pipeline.ground_truth_rows(r, maps[r.id]) for r in corpus.images])


def cosegment(corpus, config):
    """Phase I on maps built for the call."""
    return pipeline.run_cosegmentation(corpus, config, pipeline.build_maps(corpus.images))


def colabel_phase1(corpus, phase1, model, config, maps):
    """Phase II on the records of a Phase I result."""
    return pipeline.run_colabeling(corpus, phase1.regions, phase1.exemplars,
                                   phase1.propagations, model, config, maps)


def region_maps(phase1):
    """Each image's final region map, as bytes."""
    return {image_id: regions[0].region_map.tobytes()
            for image_id, regions in phase1.regions.items()}


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
        assert result.counters["phase1_converged"] and result.counters["phase1_fixed_point"]

    def test_rerun_reproduces_partitions(self):
        corpus = uniform_corpus()
        config = pipeline.Config(seed=1)
        assert region_maps(cosegment(corpus, config)) == region_maps(cosegment(corpus, config))

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
        counters = result.counters
        assert len(gaps) == counters["phase1_exemplars_trained"] > 0
        assert counters["phase1_esvm_max_duality_gap"] == max(gaps)
        assert 0.0 <= counters["phase1_esvm_max_duality_gap"] <= 1e-6
        uniform = cosegment(uniform_corpus(), pipeline.Config(seed=1))
        assert uniform.counters["phase1_esvm_max_duality_gap"] == 0.0


    def test_degenerate_calibrations_counted(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=28), 2)
        config = pipeline.Config(seed=28)
        # every exemplar calibrates against one positive and its negatives,
        # so a degenerate fit has to be forced: here every score is positive
        assert cosegment(corpus, config).counters["phase1_esvm_degenerate_calibrations"] == 0
        calibrate = esvm.calibrate
        monkeypatch.setattr(esvm, "calibrate",
                            lambda scores, flags: calibrate(scores, np.ones_like(flags)))
        counters = cosegment(corpus, config).counters
        assert counters["phase1_esvm_degenerate_calibrations"] == \
            counters["phase1_exemplars_trained"] > 0


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
        assert len(fits) == result.counters["phase1_exemplars_trained"] > 0
        for scores, flags, cal in fits:
            assert cal.alpha != 1.0 and not cal.degenerate
            assert_calibration_stationary(scores, flags, cal)

    @pytest.mark.parametrize("seed, n_images", [(5, 10), (34, 3), (10, 2)])
    def test_corpora_that_orbited_on_ties_reach_a_fixed_point(self, seed, n_images):
        # each closed an orbit while a re-solve could swap an image's
        # partition for another optimum of the same objective
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=seed), n_images)
        counters = cosegment(corpus, pipeline.Config(seed=seed)).counters
        assert counters["phase1_fixed_point"] and counters["phase1_orbit_length"] == 0


class TestKeepTiedPartition:
    """``_group_all`` keeps an image's previous partition when a proven
    optimum ties it, and takes the solution's partition otherwise."""

    def group(self, monkeypatch, gain, proven):
        # the solver returns the merged partition, ``gain`` below the
        # previous partition's objective
        image = uniform_corpus(1).images[0]
        graph = grouping.superpixel_graph(image)
        previous = Partition.from_assignment([0, 1])
        merged = Partition.from_assignment([0, 0])

        def solve(instance, theta):
            objective = grouping.objective_of(instance, previous.assignment, theta) - gain
            return grouping.MulticutSolution(partition=merged, objective=objective,
                                             mask_active=(), proven_optimal=proven)

        monkeypatch.setattr(grouping, "solve_multicut", solve)
        partitions = pipeline._group_all([image], [], pipeline.Config(), {},
                                         {image.id: graph}, {image.id: previous})
        return partitions[image.id], previous, merged

    def test_a_tie_keeps_the_previous_partition(self, monkeypatch):
        got, previous, _ = self.group(monkeypatch, 0.0, True)
        assert got is previous

    def test_a_better_solution_replaces_it(self, monkeypatch):
        got, _, merged = self.group(monkeypatch, 1e-6, True)
        assert got is merged

    def test_an_unproven_tie_replaces_it(self, monkeypatch):
        got, _, merged = self.group(monkeypatch, 0.0, False)
        assert got is merged


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
        maps = pipeline.build_maps(corpus.images + (train,))
        model = pipeline.train_label_model(
            corpus.vocabulary, [pipeline.ground_truth_rows(image, maps[image.id])
                                for image in corpus.images + (train,)])
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        phase2 = colabel_phase1(corpus, phase1, model, config, maps)
        assert (phase2.label_maps["flat0"] == 0).all()

    def test_output_labels_within_tags(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=13), 4)
        config = pipeline.Config(seed=13)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        phase2 = colabel_phase1(corpus, phase1, model, config, maps)
        for image in corpus.images:
            allowed = set(image.tags) | {0}
            assert set(np.unique(phase2.label_maps[image.id])) <= allowed

    def test_overruled_counters_count_labels_off_the_unary_argmin(self):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=11), 2)
        config = pipeline.Config(seed=11)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        phase2 = colabel_phase1(corpus, phase1, model, config, maps)
        graph = colabel.build_graph(
            list(corpus.images), phase1.regions, phase1.propagations,
            {ex.id: ex.source_region for ex in phase1.exemplars}, model, maps,
            config.beta_pair, config.sigmoid_sharpness, config.e_max)
        vertices = pixels = 0
        for region, cand, unary in zip(graph.vertex_regions, graph.problem.candidates,
                                       graph.problem.unary):
            final = phase2.label_maps[region.id[0]][region.region_map == region.id[1]]
            if final[0] != cand[int(np.argmin(unary))]:
                vertices += 1
                pixels += final.size
        assert vertices > 0
        counters = phase2.counters
        assert (counters["phase2_overruled_vertices"],
                counters["phase2_overruled_pixels"]) == (vertices, pixels)

    def test_joint_energy_not_worse_than_independent(self):
        from coparse import colabel
        from coparse.graphcut import energy_of

        corpus = synthgen.generate(synthgen.default_scene_spec(seed=13), 4)
        config = pipeline.Config(seed=13)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        joint = colabel_phase1(corpus, phase1, model, config, maps)

        # label each image independently, then score the merged labeling on
        # the joint multi-image graph
        source_regions = {e.id: e.source_region for e in phase1.exemplars}
        graph = colabel.build_graph(list(corpus.images), phase1.regions,
                                    phase1.propagations, source_regions, model, maps,
                                    config.beta_pair, config.sigmoid_sharpness, config.e_max)
        merged = np.empty(len(graph.vertex_regions), dtype=np.int64)
        for image in corpus.images:
            solo = colabel_phase1(Corpus(vocabulary=corpus.vocabulary, images=(image,)),
                                  phase1, model, config, maps)
            for idx, region in enumerate(graph.vertex_regions):
                if region.id[0] == image.id:
                    ys, xs = np.nonzero(region.region_map == region.id[1])
                    merged[idx] = solo.label_maps[image.id][ys[0], xs[0]]
        assert joint.total_energy <= energy_of(graph.problem, merged) + 1e-9

    @staticmethod
    def crossing_phase1():
        """Phase I on 3 images, with one more propagation, of an exemplar onto
        a region of another image, so that the graph holds an exterior edge
        whatever Phase I placed: (corpus, config, model, maps, phase1,
        propagations)."""
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        config = pipeline.Config(seed=8)
        model = fit_label_model(corpus)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        exemplar = phase1.exemplars[0]
        target = next(image.id for image in corpus.images
                      if image.id != exemplar.source_region[0])
        region = phase1.regions[target][-1]
        rows, cols = region.bbox
        crossing = PropagationRecord(source_exemplar=exemplar.id, target_image=target,
                                     x=cols.start, y=rows.start,
                                     mask=region.region_map[rows, cols] == region.id[1],
                                     score=0.5)
        return corpus, config, model, maps, phase1, [*phase1.propagations, crossing]

    def test_build_graph_wires_both_table_contexts(self):
        """Each interior table takes the label model's -PMI as its context and
        each exterior table the sum of its ends' location energies, checked
        bit for bit against ``edge_table`` on one edge's own inputs."""
        corpus, config, model, maps, phase1, props = self.crossing_phase1()
        graph = colabel.build_graph(list(corpus.images), phase1.regions, props,
                                    {ex.id: ex.source_region for ex in phase1.exemplars},
                                    model, maps, config.beta_pair, config.sigmoid_sharpness,
                                    config.e_max)
        hist, location = [], []
        for image in corpus.images:
            regs = phase1.regions[image.id]
            cand = np.array(sorted(set(image.tags) | {0}))
            hist.extend(features.region_histograms(maps[image.id], regs[0].region_map,
                                                   len(regs)))
            location.extend(colabel.location_energies(model, [r.centroid for r in regs])[:, cand])
        kinds = []
        for u, v, table in graph.problem.edges:
            cand_u, cand_v = graph.problem.candidates[u], graph.problem.candidates[v]
            if graph.vertex_regions[u].id[0] == graph.vertex_regions[v].id[0]:
                context = -model.pmi[np.ix_(cand_u, cand_v)]
            else:
                context = location[u][:, None] + location[v][None, :]
            kinds.append((u, v) in graph.exterior_edges)
            expected = colabel.edge_table(features.chi_square(hist[u], hist[v]), cand_u, cand_v,
                                          context, config.beta_pair, config.e_max)
            assert (table.shape, table.tobytes()) == (expected.shape, expected.tobytes())
        assert sum(kinds) == len(graph.exterior_edges) >= 1 and not all(kinds)

    def test_per_image_energy_matches_plain_split(self, monkeypatch):
        corpus, config, model, maps, phase1, props = self.crossing_phase1()
        graphs = []
        build_graph = colabel.build_graph
        monkeypatch.setattr(colabel, "build_graph",
                            lambda *a: graphs.append(build_graph(*a)) or graphs[-1])
        result = pipeline.run_colabeling(corpus, phase1.regions, phase1.exemplars,
                                         props, model, config, maps)
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
            if image_u == image_v:
                expected[image_u] += term
            else:
                expected[image_u] += term / 2.0
                expected[image_v] += term / 2.0
        assert result.per_image_energy == expected
        assert sum(expected.values()) == pytest.approx(result.total_energy, rel=1e-12)

    def test_every_energy_call_scores_one_row(self, monkeypatch):
        """Phase II gathers one labeling's terms per call, when it prices a
        labeling and when it splits the energy by image, so no table grows
        with the image count."""
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=8), 3)
        config = pipeline.Config(seed=8)
        maps = pipeline.build_maps(corpus.images)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        rows = []
        terms = graphcut.LabelingProblem.terms
        monkeypatch.setattr(graphcut.LabelingProblem, "terms",
                            lambda self, pos: rows.append(len(pos)) or terms(self, pos))
        colabel_phase1(corpus, phase1, fit_label_model(corpus), config, maps)
        assert rows and set(rows) == {1}

    def test_exterior_edges_reach_the_labeling(self, tmp_path):
        """On the near-colour corpus the exterior edge's term moves the final
        labeling: anchoring every propagation at its source image's region 0
        instead of the exemplar's own source region changes the total energy
        and the label maps. (On the default spec's small corpora exterior
        edges cost nothing at the final labeling, so they could not show a
        fault there.)"""
        spec = Path(__file__).parent / "near_colour_spec.json"
        assert cli.main(["gen", "--spec", str(spec), "--n", "4", "--seed", "1",
                         "--out", str(tmp_path / "corpus")]) == 0
        corpus = io.load_corpus(tmp_path / "corpus" / "manifest.json")
        config = pipeline.Config()
        maps = pipeline.build_maps(corpus.images)
        model = fit_label_model(corpus)
        phase1 = pipeline.run_cosegmentation(corpus, config, maps)
        own = colabel_phase1(corpus, phase1, model, config, maps)
        moved = pipeline.run_colabeling(
            corpus, phase1.regions,
            [replace(ex, source_region=(ex.source_region[0], 0)) for ex in phase1.exemplars],
            phase1.propagations, model, config, maps)
        assert own.counters["phase2_exterior_edges"] == 1
        assert moved.counters["phase2_exterior_edges"] == 1
        assert own.total_energy == pytest.approx(399.7350, abs=1e-4)
        assert moved.total_energy == pytest.approx(399.4777, abs=1e-4)
        assert any(own.label_maps[i].tobytes() != moved.label_maps[i].tobytes()
                   for i in own.label_maps)


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
        trained, labeled = [], []
        colabeling = pipeline.run_colabeling

        def recorded_colabeling(corpus, regions, exemplars, propagations, model, *args):
            # the corpus and the model each fold's Phase II takes
            labeled.append([rec.id for rec in corpus.images])
            trained.append(model)
            return colabeling(corpus, regions, exemplars, propagations, model, *args)

        monkeypatch.setattr(pipeline, "run_colabeling", recorded_colabeling)
        pipeline.cross_validate(corpus, config)
        monkeypatch.undo()
        ids = [rec.id for rec in corpus.images]
        folds = pipeline.fold_assignment(ids, config.fold_count, config.seed)
        assert len(trained) == config.fold_count
        # each fold labels the sub-corpus of its test images, in corpus order
        assert labeled == [[i for i in ids if folds[i] == fold]
                           for fold in range(config.fold_count)]
        image = {rec.id: rec for rec in corpus.images}
        for fold, model in enumerate(trained):
            alone = fit_label_model(Corpus(
                vocabulary=corpus.vocabulary,
                images=tuple(image[i] for i in sorted(i for i in ids if folds[i] != fold))))
            got, want = model.appearance, alone.appearance
            assert (got.gamma, got.trained_labels) == (want.gamma, want.trained_labels)
            assert len(got.machines) == len(want.machines) > 0
            for (a, b, sv, coef), (a2, b2, sv2, coef2) in zip(got.machines, want.machines):
                assert (a, b) == (a2, b2)
                assert sv.tobytes() == sv2.tobytes() and coef.tobytes() == coef2.tobytes()
            for name in ("location_mean", "location_cov", "cooccurrence"):
                assert getattr(model, name).tobytes() == getattr(alone, name).tobytes()

    def test_train_label_model_replaced_by_a_closure(self, monkeypatch):
        """A tracer replaces ``train_label_model`` with a closure; the CV calls
        the replacement, once per fold, and its results are unchanged."""
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)
        config = pipeline.Config(seed=21, fold_count=2)
        plain = pipeline.cross_validate(corpus, config)
        calls = []
        train = pipeline.train_label_model

        def wrapped(vocabulary, rows):
            calls.append(len(rows))
            return train(vocabulary, rows)

        monkeypatch.setattr(pipeline, "train_label_model", wrapped)
        traced = pipeline.cross_validate(corpus, config)
        assert calls == [2, 2]
        assert traced.folds == plain.folds
        for key in plain.label_maps:
            assert traced.label_maps[key].tobytes() == plain.label_maps[key].tobytes()

    def test_near_colour_corpus_meets_its_targets(self, tmp_path):
        """The 10-fold CV on the near-colour corpus (seed 42, 20 images):
        the default scene with the four garment colours drawn close to each
        other, wider colour spread and more noise, so appearance alone
        confuses labels and Phase II's contexts have to settle them. The
        targets sit just under the measured aPA 0.9992 and mAGR 0.9979."""
        spec = Path(__file__).parent / "near_colour_spec.json"
        assert cli.main(["gen", "--spec", str(spec), "--n", "20",
                         "--out", str(tmp_path / "corpus")]) == 0
        corpus = io.load_corpus(tmp_path / "corpus" / "manifest.json")
        result = pipeline.cross_validate(corpus, pipeline.Config(seed=42))
        assert all(fold.phase1_converged for fold in result.folds)
        assert result.apa_mean >= 0.999
        assert result.magr_mean >= 0.99

    def test_label_model_package_error_keeps_its_type(self, monkeypatch):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 4)

        def no_fit(*_args):
            raise InsufficientDataError("no machine to fit")

        monkeypatch.setattr(colabel, "train_appearance", no_fit)
        with pytest.raises(InsufficientDataError, match="no machine to fit"):
            pipeline.cross_validate(corpus, pipeline.Config(seed=21, fold_count=2))

    def test_failed_fold_leaves_no_worker(self, monkeypatch):
        """A fold's solver error reaches the caller with its type, and no
        process is left behind (the autouse fixture checks that)."""
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=21), 6)

        def failing(*_args):
            raise SolverError("fold 0 fails")

        monkeypatch.setattr(grouping, "solve_multicut", failing)
        with pytest.raises(SolverError, match="fold 0 fails"):
            pipeline.cross_validate(corpus, pipeline.Config(seed=21, fold_count=3))


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

def _reference_group_all(images, propagations, config, previous):
    partitions = {}
    for image in images:
        props = [p for p in propagations if p.target_image == image.id]
        instance = grouping.instance_for_image(image, props, grouping.superpixel_graph(image))
        solution = grouping.solve_multicut(instance, config.theta)
        partitions[image.id] = solution.partition
        # a proven optimum that the previous partition ties leaves it in place
        if previous is not None and solution.proven_optimal and grouping.objective_of(
                instance, previous[image.id].assignment, config.theta) <= \
                solution.objective + 1e-9:
            partitions[image.id] = previous[image.id]
    return partitions


def _reference_train_and_propagate(images, partitions, config):
    maps = {image.id: features.image_maps(image.pixels) for image in images}
    pyramids = {image.id: features.hog_pyramid(maps[image.id].luma, config.scales)
                for image in images}
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
                config.lambda1, config.lambda2, config.seed, maps, pyramids))
    propagations = []
    for exemplar in exemplars:
        propagations.extend(esvm.propagate(exemplar, images, pyramids, config.k_top,
                                           config.stride, config.scales))
    return exemplars, propagations


def _reference_cosegmentation(corpus, config, group_all=_reference_group_all):
    images = list(corpus.images)
    exemplars, propagations = [], []
    previous, seen, changed = None, set(), []
    history = []    # each iteration's partitions, until the loop stops
    iteration, converged, fixed_point = 0, False, False
    while iteration < config.max_phase1_iters:
        iteration += 1
        partitions = group_all(images, propagations, config, previous)
        changed.append(sum(previous is None or not np.array_equal(
            partitions[i.id].assignment, previous[i.id].assignment) for i in images))
        if previous is not None and all(
                partitions[i.id].equals(previous[i.id]) for i in images):
            converged = fixed_point = True
            break
        signature = tuple(partitions[i.id].assignment.tobytes() for i in images)
        history.append(partitions)
        if signature in seen:
            converged = True
            previous = partitions
            exemplars, propagations = _reference_train_and_propagate(images, partitions, config)
            break
        seen.add(signature)
        previous = partitions
        exemplars, propagations = _reference_train_and_propagate(images, partitions, config)
    regions = {image.id: regions_of(image, previous[image.id]) for image in images}
    # an orbit: the iterations from the first visit of the repeated state on
    orbit = []
    if converged and not fixed_point:
        orbit = next(history[k:-1] for k in range(len(history)) if all(
            history[k][i.id].equals(history[-1][i.id]) for i in images))
    cycling = [i.id for i in images
               if any(not state[i.id].equals(orbit[0][i.id]) for state in orbit)]
    # the fields and counters of a Phase1Result that the uncached loop can check
    return SimpleNamespace(regions=regions, exemplars=exemplars, propagations=propagations,
                           iteration_count=iteration, counters={
                               "phase1_converged": converged, "phase1_fixed_point": fixed_point,
                               "phase1_images_changed": changed,
                               "phase1_orbit_length": len(orbit),
                               "phase1_cycling_images": cycling})


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
                          lam1, lam2, seed, maps, pyramids):
            key = (exemplar_id, image.id, region.superpixels, excluded.tobytes(),
                   tuple(rec.id for rec in corpus_images), lam1, lam2, seed)
            self.builds.append(key)
            self.first_region.setdefault(exemplar_id, region.id)
            return build(exemplar_id, image, region, corpus_images, excluded,
                         lam1, lam2, seed, maps, pyramids)

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


def _alternating(group_all, image_id, other):
    """``group_all`` with the partition of image ``image_id`` forced to
    ``other`` on every pass after the first whose previous partition is not
    ``other``, so that image alternates between ``other`` and what
    ``group_all`` gives it, and Phase I can only end in an orbit."""
    def forced(*args):
        partitions = group_all(*args)
        previous = args[-1]
        if previous is not None and not previous[image_id].equals(other):
            partitions[image_id] = other
        return partitions
    return forced


# (scene seed, image count): a 3-image corpus whose Phase I is forced into a
# closed orbit, and a 3-image corpus where a returned exemplar's region kept
# its superpixels but moved to another index since the exemplar was first built
MEMO_CASES = {"closed-orbit": (34, 3), "region-index-change": (26, 3)}


@pytest.fixture(scope="module", params=sorted(MEMO_CASES))
def phase1_runs(request):
    seed, n_images = MEMO_CASES[request.param]
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=seed), n_images)
    config = pipeline.Config(seed=seed)
    orbit = request.param == "closed-orbit"
    # the orbit's image alternates with one region over all its superpixels
    image = corpus.images[0]
    one_region = Partition.from_assignment(np.zeros(image.superpixel_map.max() + 1))
    with pytest.MonkeyPatch.context() as mp:
        reference_log = _CallLog(mp)
        reference = _reference_cosegmentation(corpus, config, _alternating(
            _reference_group_all, image.id, one_region) if orbit else _reference_group_all)
    with pytest.MonkeyPatch.context() as mp:
        log = _CallLog(mp)
        if orbit:
            mp.setattr(pipeline, "_group_all",
                       _alternating(pipeline._group_all, image.id, one_region))
        result = cosegment(corpus, config)
    # the corpus shows the case it stands for, and the uncached loop repeats work
    if orbit:
        counters = result.counters
        assert counters["phase1_converged"] and not counters["phase1_fixed_point"]
        assert counters["phase1_orbit_length"] == 2
        assert counters["phase1_cycling_images"] == [image.id]
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
        assert region_maps(result) == region_maps(reference)
        _assert_same_records(result.exemplars, reference.exemplars)
        _assert_same_records(result.propagations, reference.propagations)
        assert result.iteration_count == reference.iteration_count
        counters, expected = result.counters, reference.counters
        for key in ("phase1_converged", "phase1_fixed_point", "phase1_images_changed"):
            assert counters[key] == expected[key], key
        changed = counters["phase1_images_changed"]
        assert len(changed) == counters["phase1_iterations"] == result.iteration_count
        assert (changed[-1] == 0) == counters["phase1_fixed_point"]

    def test_orbit_equals_uncached_loop(self, phase1_runs):
        reference, _, result, _ = phase1_runs
        counters, expected = result.counters, reference.counters
        for key in ("phase1_orbit_length", "phase1_cycling_images"):
            assert counters[key] == expected[key], key
        assert (counters["phase1_orbit_length"] > 0) == bool(counters["phase1_cycling_images"]) \
            == (counters["phase1_converged"] and not counters["phase1_fixed_point"])

    def test_counts_split_the_uncached_calls(self, phase1_runs):
        _, reference_log, result, log = phase1_runs
        counters = result.counters
        assert counters["phase1_multicuts_solved"] == len(log.solves)
        assert counters["phase1_multicuts_solved"] + counters["phase1_multicuts_reused"] == \
            len(reference_log.solves)
        assert counters["phase1_exemplars_trained"] == len(log.builds)
        assert counters["phase1_exemplars_trained"] + counters["phase1_exemplars_reused"] == \
            len(reference_log.builds)

    def test_multicut_counters_sum_the_solves(self, phase1_runs):
        _, _, result, log = phase1_runs
        solutions, counters = log.solutions, result.counters
        assert counters["phase1_multicut_lp_solves"] == sum(s.lp_solves for s in solutions)
        assert counters["phase1_multicut_nodes"] == sum(s.nodes for s in solutions)
        assert counters["phase1_multicut_cuts"] == sum(s.cuts for s in solutions)
        assert counters["phase1_multicuts_unproven"] == \
            sum(not s.proven_optimal for s in solutions) == 0
        assert counters["phase1_multicut_cuts"] > 0
        assert counters["phase1_multicut_nodes"] >= counters["phase1_multicuts_solved"]
