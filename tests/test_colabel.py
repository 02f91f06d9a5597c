import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coparse import colabel, features, graphcut, kernels
from coparse.core import Partition, PropagationRecord, Region, label_components, regions_of
from coparse.errors import MalformedInputError, UnknownLabelError
from coparse.pipeline import Config, build_maps

from conftest import make_image

# the energy settings of a default pipeline run
ENERGY = dict(beta_pair=Config.beta_pair,
              sharpness=Config.sigmoid_sharpness, e_max=Config.e_max)


def random_histograms(rng, n, hot_bins):
    """Histograms concentrated on a fixed set of bins (disjoint families)."""
    out = np.zeros((n, 40))
    for i in range(n):
        weights = rng.uniform(0.5, 1.0, size=len(hot_bins))
        out[i, hot_bins] = weights / weights.sum()
    return out


def _decisions_per_machine(model, hist):
    """Decision values with one kernel row per machine, against its own
    support vectors."""
    return np.array([float(coef @ np.exp(-model.gamma * features.chi_square(hist, sv)))
                     for _, _, sv, coef in model.machines])


def regions_for(images, parts):
    """Each image's regions of its partition in ``parts``, by id."""
    return {image.id: regions_of(image, parts[image.id]) for image in images}


def simple_model(vocab=("background", "a", "b"), mu=None):
    """Small fitted model with controllable location means."""
    rng = np.random.default_rng(0)
    hists = np.vstack([
        random_histograms(rng, 6, [0, 1, 2]),
        random_histograms(rng, 6, [10, 11]),
        random_histograms(rng, 6, [20, 21]),
    ])
    labels = np.array([0] * 6 + [1] * 6 + [2] * 6)
    appearance = colabel.train_appearance(hists, labels, len(vocab))
    centroids = {i: np.tile([[0.5, 0.5]], (4, 1)) for i in range(len(vocab))}
    if mu:
        for k, v in mu.items():
            centroids[k] = np.tile([v], (4, 1))
    means, covs = colabel.fit_location(centroids, len(vocab))
    psi = colabel.fit_cooccurrence([(0, 1), (0, 2), (1, 2)], len(vocab))
    return colabel.LabelModel(vocabulary=tuple(vocab), appearance=appearance,
                              location_mean=means, location_cov=covs,
                              cooccurrence=psi)


class TestAppearance:
    def test_single_label_always_votes_one(self):
        rng = np.random.default_rng(1)
        hists = random_histograms(rng, 5, [3, 4])
        model = colabel.train_appearance(hists, np.full(5, 2), vocab_size=4)
        votes = model.votes(random_histograms(rng, 1, [8]))[0]
        assert votes[2] == 1.0
        assert votes.sum() == 1.0

    def test_two_separated_clusters_perfect_holdout(self):
        rng = np.random.default_rng(2)
        train_a = random_histograms(rng, 20, [0, 1, 2])
        train_b = random_histograms(rng, 20, [30, 31, 32])
        hists = np.vstack([train_a, train_b])
        labels = np.array([0] * 20 + [1] * 20)
        model = colabel.train_appearance(hists, labels, vocab_size=2)
        correct = 0
        for label, hot in ((0, [0, 1, 2]), (1, [30, 31, 32])):
            test = random_histograms(rng, 20, hot)
            correct += int((np.argmax(model.votes(test), axis=1) == label).sum())
        assert correct == 40

    def test_max_duality_gap_over_machines(self, monkeypatch):
        rng = np.random.default_rng(2)
        hists = np.vstack([random_histograms(rng, 12, [0, 1, 2]),
                           random_histograms(rng, 12, [0, 1, 30]),
                           random_histograms(rng, 12, [30, 31, 32])])
        labels = np.repeat([0, 1, 2], 12)
        gaps = []
        solve = kernels.solve_box_qp

        def recorded(q, c):
            alpha, gap = solve(q, c)
            gaps.append(gap)
            return alpha, gap

        monkeypatch.setattr(kernels, "solve_box_qp", recorded)
        model = colabel.train_appearance(hists, labels, vocab_size=3)
        assert len(gaps) == 3
        assert model.max_duality_gap == max(gaps) <= 1e-9
        # one trained label has no machine
        one = colabel.train_appearance(hists[:12], labels[:12], vocab_size=3)
        assert one.machines == () and one.max_duality_gap == 0.0

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
    def test_batched_decisions_equal_per_machine_decisions(self, seed, n_labels):
        rng = np.random.default_rng(seed)
        families = [list(rng.choice(40, size=3, replace=False)) for _ in range(n_labels)]
        sizes = rng.integers(1, 8, size=n_labels)
        hists = np.vstack([random_histograms(rng, n, hot) for n, hot in zip(sizes, families)])
        labels = np.repeat(np.arange(n_labels), sizes)
        model = colabel.train_appearance(hists, labels, vocab_size=n_labels + 1)
        probe = np.vstack([hists[:3], rng.dirichlet(np.ones(40), size=5)])
        got = model.votes(probe)
        assert got.shape == (8, n_labels + 1)
        for hist, row in zip(probe, got):
            votes = np.zeros(n_labels + 1)
            for (a, b, _, _), decision in zip(model.machines, _decisions_per_machine(model, hist)):
                votes[a if decision >= 0 else b] += 1.0
            assert row.tobytes() == (votes / len(model.machines)).tobytes()

    def test_distance_matrix_memory_is_bounded(self):
        # 600 histograms: the whole (N, N, 40) chi-square temporaries would
        # take 110 MiB each
        rng = np.random.default_rng(14)
        hists = rng.dirichlet(np.full(40, 0.5), size=600)
        labels = rng.integers(0, 2, size=600)
        tracemalloc.start()
        try:
            colabel.train_appearance(hists, labels, vocab_size=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_votes_sum_to_one(self):
        model = simple_model()
        rng = np.random.default_rng(3)
        for votes in model.appearance.votes(random_histograms(rng, 10, [5, 6])):
            assert votes.sum() == pytest.approx(1.0)


class TestLocation:
    def test_single_sample_ridge_only(self):
        means, covs = colabel.fit_location({1: np.array([[0.4, 0.6]])}, 2)
        assert means[1].tolist() == [0.4, 0.6]
        assert np.allclose(covs[1], 1e-3 * np.eye(2))

    def test_symmetric_samples_centered(self):
        pts = np.array([[0.4, 0.4], [0.6, 0.6], [0.4, 0.6], [0.6, 0.4]])
        means, _ = colabel.fit_location({0: pts}, 1)
        assert np.allclose(means[0], [0.5, 0.5])

    def test_recovers_known_gaussian(self):
        rng = np.random.default_rng(4)
        pts = rng.multivariate_normal([0.3, 0.5], np.diag([0.01, 0.02]), size=100)
        means, covs = colabel.fit_location({0: pts}, 1)
        assert np.allclose(means[0], [0.3, 0.5], atol=0.03)
        assert covs[0][0, 0] == pytest.approx(0.01, rel=0.35)
        assert covs[0][1, 1] == pytest.approx(0.02, rel=0.35)

    def test_score_is_one_at_mean(self):
        model = simple_model(mu={1: (0.3, 0.7)})
        score = np.exp(-colabel.location_energies(model, (0.3, 0.7)))
        assert score[1] == pytest.approx(1.0)

    def test_equal_mahalanobis_equal_scores(self):
        model = simple_model()
        s1 = np.exp(-colabel.location_energies(model, (0.5 + 0.02, 0.5)))
        s2 = np.exp(-colabel.location_energies(model, (0.5 - 0.02, 0.5)))
        assert s1[1] == pytest.approx(s2[1])

    def test_one_sigma_principal_axis(self):
        pts = np.array([[0.5 + d, 0.5] for d in (-0.1, -0.05, 0.0, 0.05, 0.1)])
        means, covs = colabel.fit_location({1: pts}, 3)
        base = simple_model()
        model = colabel.LabelModel(vocabulary=base.vocabulary,
                                   appearance=base.appearance,
                                   location_mean=means, location_cov=covs,
                                   cooccurrence=base.cooccurrence)
        sigma = float(np.sqrt(covs[1][0, 0]))
        score = np.exp(-colabel.location_energies(model, (0.5 + sigma, 0.5)))
        assert score[1] == pytest.approx(np.exp(-0.5))

    def test_background_is_exempt(self):
        model = simple_model(mu={0: (0.1, 0.1)})
        assert colabel.location_energies(model, (0.9, 0.9))[0] == 0.0

    def test_matches_per_label_solve_bit_for_bit(self):
        rng = np.random.default_rng(10)
        base = simple_model()
        for _ in range(300):
            spread = rng.normal(0.0, 0.1, size=(3, 2, 2))
            covs = spread @ spread.transpose(0, 2, 1) + 1e-3 * np.eye(2)
            model = colabel.LabelModel(vocabulary=base.vocabulary, appearance=base.appearance,
                                       location_mean=rng.uniform(0, 1, size=(3, 2)),
                                       location_cov=covs, cooccurrence=base.cooccurrence)
            point = tuple(rng.uniform(0, 1, size=2))
            got = colabel.location_energies(model, point)
            for label in (1, 2):
                diff = np.asarray(point) - model.location_mean[label]
                assert got[label] == 0.5 * float(diff @ np.linalg.solve(covs[label], diff))

    def test_points_in_one_call_equal_each_point_alone(self):
        model = simple_model(mu={1: (0.3, 0.7), 2: (0.6, 0.4)})
        points = np.random.default_rng(11).uniform(0, 1, size=(4, 5, 2))
        got = colabel.location_energies(model, points)
        assert got.shape == (4, 5, 3)
        for i, j in np.ndindex(4, 5):
            assert (got[i, j].tobytes()
                    == colabel.location_energies(model, tuple(points[i, j])).tobytes())

    def test_unknown_label_rejected(self):
        model = simple_model()
        image = make_image(np.zeros((4, 4), dtype=int), tags=(9,))
        parts = {image.id: Partition.from_assignment([0])}
        with pytest.raises(UnknownLabelError):
            colabel.build_graph([image], regions_for([image], parts), [], {}, model,
                                build_maps([image]), **ENERGY)


class TestCooccurrence:
    def test_hand_counted_example(self):
        # 3 adjacent pairs labeled {coat, pants}, 1 labeled {coat, coat}, V=2
        pairs = [(0, 1)] * 3 + [(0, 0)]
        psi = colabel.fit_cooccurrence(pairs, 2)
        assert psi[0, 1] == pytest.approx((3 + 1) / (4 + 4))
        assert psi[0, 0] == pytest.approx((1 + 1) / (4 + 4))
        assert psi[1, 1] == pytest.approx((0 + 1) / (4 + 4))

    def test_never_adjacent_floor(self):
        psi = colabel.fit_cooccurrence([(0, 1)] * 5, 3)
        assert psi[1, 2] == pytest.approx(1 / (5 + 9))

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(5)
        pairs = [tuple(rng.integers(0, 4, size=2)) for _ in range(30)]
        psi = colabel.fit_cooccurrence(pairs, 4)
        assert np.allclose(psi, psi.T)
        assert (psi > 0).all()


def unary_one(vote, location, sharpness=4.0, e_max=20.0):
    return float(colabel.unary_energies(np.array([vote]), np.array([location]),
                                        sharpness, e_max)[0])


def appearance_one(chi2, label_m, label_n, beta_pair=2.0):
    """The raw appearance term of one label pair: with no context, the
    equal-label entry (label_m, label_m) is 0 and pins the shift at 0."""
    return float(colabel.edge_table(chi2, np.array([label_m]), np.array([label_m, label_n]),
                                    np.zeros((1, 2)), beta_pair, np.inf)[0, 1])


def scalar_unary(vote, location, sharpness, e_max):
    """Reference: one candidate's unary, as a scalar formula."""
    val = float(np.logaddexp(0.0, -(sharpness * (vote - 0.5)))) + location
    return float(min(max(val, 0.0), e_max))


def scalar_appearance(chi2, label_m, label_n, beta_pair):
    """Reference: one candidate pair's raw appearance term."""
    return beta_pair * float(np.exp(-chi2)) if label_m != label_n else 0.0


class TestEnergies:
    def test_unary_midpoint(self):
        assert unary_one(0.5, 0.0) == pytest.approx(np.log(2))

    def test_unary_clamps_at_e_max(self):
        assert unary_one(0.5, 1e9) == 20.0

    def test_unary_worked_example(self):
        # vote 1, one sigma off the mean: -log(sig(2)) + 0.5
        val = unary_one(1.0, 0.5, sharpness=4.0)
        assert val == pytest.approx(0.1269 + 0.5, abs=1e-4)

    def test_unary_per_candidate(self):
        # the worked examples above, as one vertex with three candidates
        vals = colabel.unary_energies(np.array([0.5, 1.0, 0.5]), np.array([0.0, 0.5, 1e9]),
                                      4.0, 20.0)
        assert vals == pytest.approx([np.log(2), 0.1269 + 0.5, 20.0], abs=1e-4)

    def test_interior_appearance_smoothing(self):
        assert appearance_one(0.3, 1, 1) == 0.0
        val = appearance_one(1.0, 1, 2, beta_pair=2.0)
        assert val == pytest.approx(2.0 * np.exp(-1.0))

    def test_appearance_per_candidate_pair(self):
        cands_m, cands_n = np.array([0, 1, 2]), np.array([1, 2])
        smooth = colabel.edge_table(1.0, cands_m, cands_n, np.zeros((3, 2)), 2.0, np.inf)
        off = 2.0 * np.exp(-1.0)
        assert smooth == pytest.approx(np.array([[off, off], [0.0, off], [off, 0.0]]))

    def test_interior_table_min_shift_and_clamp(self):
        model = simple_model()
        rng = np.random.default_rng(6)
        h1 = random_histograms(rng, 1, [0, 1])[0]
        h2 = random_histograms(rng, 1, [20, 21])[0]
        cands = np.array([0, 1, 2])
        table = colabel.edge_table(features.chi_square(h1, h2), cands, cands,
                                   -model.pmi[np.ix_(cands, cands)], 2.0, 20.0)
        assert table.min() == pytest.approx(0.0, abs=1e-12)
        assert table.max() <= 20.0
        assert np.isfinite(table).all()

    def test_exterior_zero_at_means_equal_labels(self):
        model = simple_model(mu={1: (0.2, 0.8)})
        h = random_histograms(np.random.default_rng(7), 1, [10, 11])[0]
        cands = np.array([1, 2])
        location = colabel.location_energies(model, (0.2, 0.8))[cands]
        table = colabel.edge_table(features.chi_square(h, h), cands, cands,
                                   location[:, None] + location[None, :], 2.0, 20.0)
        assert table[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_exterior_symmetric_for_equal_histograms(self):
        model = simple_model()
        h = random_histograms(np.random.default_rng(8), 1, [10, 11])[0]
        cands = np.array([0, 1, 2])
        location = colabel.location_energies(model, (0.45, 0.5))[cands]
        table = colabel.edge_table(features.chi_square(h, h), cands, cands,
                                   location[:, None] + location[None, :], 2.0, 20.0)
        assert np.allclose(table, table.T)

    def test_exterior_preshift_half_nat(self):
        # G_u = exp(-0.5), G_v = 1, equal labels, chi2 = 0 -> raw 0.5
        model = simple_model(mu={1: (0.3, 0.5)})
        sigma = float(np.sqrt(model.location_cov[1][0, 0]))
        q_u = colabel.location_energies(model, (0.3 + sigma, 0.5))[1]
        q_v = colabel.location_energies(model, (0.3, 0.5))[1]
        raw = q_u + q_v + appearance_one(0.0, 1, 1)
        assert raw == pytest.approx(0.5)

    def test_background_fragments_do_not_pull_a_region_off_its_label(self):
        # four training images, background next to every label: plain
        # -log psi makes (pants, background) dearer than (background,
        # background), so each background fragment pulls a pants region
        # toward background; the mutual information takes background's
        # frequency out, and the pull turns around
        present = [{0, 1, 2}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2, 3}]
        pairs = [pair for labels in present for pair in
                 [(l, l) for l in labels] + [(0, l) for l in labels if l]
                 + [(1, 2)] * ({1, 2} <= labels)]
        model = replace(simple_model(vocab=("background", "shirt", "pants", "hat")),
                        cooccurrence=colabel.fit_cooccurrence(pairs, 4))
        cands = np.array([0, 2])
        hist = random_histograms(np.random.default_rng(13), 1, [0, 1])[0]
        # vertex 0: a large region whose unary favours pants by 0.5; vertices
        # 1-4: background fragments around it; no appearance term
        unary = (np.array([0.5, 0.0]),) + (np.array([0.0, 5.0]),) * 4
        plain = -np.log(model.cooccurrence[np.ix_(cands, cands)])
        labelings = {}
        for name, table in [
                ("plain", np.minimum(plain - plain.min(), 20.0)),
                ("pmi", colabel.edge_table(features.chi_square(hist, hist), cands, cands,
                                           -model.pmi[np.ix_(cands, cands)], 0.0, 20.0))]:
            problem = graphcut.LabelingProblem(
                candidates=(cands,) * 5, unary=unary,
                edges=tuple((0, v, table) for v in range(1, 5)))
            result = graphcut.alpha_expansion(problem, Config().max_sweeps)
            labelings[name] = result.labeling.tolist()
        assert labelings == {"plain": [0, 0, 0, 0, 0], "pmi": [2, 0, 0, 0, 0]}

    def test_tables_match_scalar_formulas_bit_for_bit(self):
        base = simple_model(mu={1: (0.3, 0.6), 2: (0.7, 0.4)})
        # wide location Gaussians, so that few entries reach the clamp
        model = colabel.LabelModel(vocabulary=base.vocabulary, appearance=base.appearance,
                                   location_mean=base.location_mean,
                                   location_cov=np.tile(0.05 * np.eye(2), (3, 1, 1)),
                                   cooccurrence=base.cooccurrence)
        rng = np.random.default_rng(12)
        for _ in range(40):
            h_u, h_v = rng.dirichlet(np.full(40, 0.5), size=2)
            cands_u = np.flatnonzero(rng.uniform(size=3) < 0.7)
            cands_v = np.flatnonzero(rng.uniform(size=3) < 0.7)
            if cands_u.size == 0 or cands_v.size == 0:
                continue
            votes = rng.dirichlet(np.ones(3))
            loc_u = colabel.location_energies(model, tuple(rng.uniform(size=2)))[cands_u]
            loc_v = colabel.location_energies(model, tuple(rng.uniform(size=2)))[cands_v]
            chi2 = features.chi_square(h_u, h_v)
            sharpness = float(rng.choice([4.0, 20.0]))
            unary = colabel.unary_energies(votes[cands_u], loc_u, sharpness, 20.0)
            assert unary.tolist() == [scalar_unary(float(votes[l]), float(g), sharpness, 20.0)
                                      for l, g in zip(cands_u, loc_u)]
            psi = model.cooccurrence
            p = psi.sum(axis=1)
            interior = np.array([[scalar_appearance(chi2, m, n, 2.0)
                                  - np.log(psi[m, n] / (p[m] * p[n])) for n in cands_v]
                                 for m in cands_u])
            exterior = loc_u[:, None] + loc_v[None, :]
            exterior += [[scalar_appearance(chi2, m, n, 2.0) for n in cands_v]
                         for m in cands_u]
            # the edge's table alone and as one of a batch of edges
            batch = np.array([rng.uniform(), chi2, rng.uniform()])
            for context, raw in [(-model.pmi[np.ix_(cands_u, cands_v)], interior),
                                 (loc_u[:, None] + loc_v[None, :], exterior)]:
                expected = np.minimum(raw - raw.min(), 20.0).tolist()
                got = colabel.edge_table(chi2, cands_u, cands_v, context, 2.0, 20.0)
                assert got.tolist() == expected
                tables = colabel.edge_table(batch, cands_u, cands_v, context, 2.0, 20.0)
                assert tables.shape == (3, *got.shape)
                assert tables[1].tolist() == expected


def interior_edges(graph):
    """The (u, v) of each edge of the graph whose ends lie in one image."""
    return [(u, v) for u, v, _ in graph.problem.edges
            if graph.vertex_regions[u].id[0] == graph.vertex_regions[v].id[0]]


class TestBuildGraph:
    def two_region_image(self, image_id="g0"):
        spmap = np.zeros((8, 8), dtype=int)
        spmap[:, 4:] = 1
        pixels = np.full((8, 8, 3), 60, dtype=np.uint8)
        pixels[:, 4:] = (200, 40, 40)
        return make_image(spmap, pixels=pixels, tags=(0, 1), image_id=image_id)

    def test_single_image_interior_only(self):
        model = simple_model()
        image = self.two_region_image()
        parts = {image.id: Partition.from_assignment([0, 1])}
        graph = colabel.build_graph([image], regions_for([image], parts), [], {}, model,
                                    build_maps([image]), **ENERGY)
        assert len(interior_edges(graph)) == 1
        assert graph.exterior_edges == ()
        assert len(graph.problem.candidates) == 2

    def test_propagation_builds_one_exterior_edge(self):
        model = simple_model()
        a = self.two_region_image("gA")
        b = self.two_region_image("gB")
        parts = {a.id: Partition.from_assignment([0, 1]),
                 b.id: Partition.from_assignment([0, 1])}
        mask = np.ones((8, 4), dtype=bool)
        props = [
            PropagationRecord(source_exemplar="e", target_image="gB",
                              x=4, y=0, mask=mask, score=0.9),
            PropagationRecord(source_exemplar="e", target_image="gB",
                              x=4, y=0, mask=mask, score=0.8),
        ]
        graph = colabel.build_graph([a, b], regions_for([a, b], parts), props,
                                    {"e": ("gA", 1)}, model, build_maps([a, b]), **ENERGY)
        assert len(graph.exterior_edges) == 1  # deduplicated
        u, v = graph.exterior_edges[0]
        assert graph.vertex_regions[u].id == ("gA", 1)
        assert graph.vertex_regions[v].id == ("gB", 1)

    def test_three_mutually_adjacent_regions(self):
        spmap = np.zeros((6, 6), dtype=int)
        spmap[:3, 3:] = 1
        spmap[3:, :] = 2
        image = make_image(spmap, tags=(0, 1, 2), image_id="tri")
        model = simple_model()
        parts = {image.id: Partition.from_assignment([0, 1, 2])}
        graph = colabel.build_graph([image], regions_for([image], parts), [], {}, model,
                                    build_maps([image]), **ENERGY)
        assert sorted(interior_edges(graph)) == [(0, 1), (0, 2), (1, 2)]

    def test_self_image_propagation_ignored(self):
        model = simple_model()
        a = self.two_region_image("gA")
        parts = {a.id: Partition.from_assignment([0, 1])}
        props = [PropagationRecord(source_exemplar="e", target_image="gA",
                                   x=4, y=0, mask=np.ones((8, 4), bool), score=0.9)]
        graph = colabel.build_graph([a], regions_for([a], parts), props, {"e": ("gA", 1)}, model,
                                    build_maps([a]), **ENERGY)
        assert graph.exterior_edges == ()

    def test_energy_tables_in_range(self):
        model = simple_model()
        a = self.two_region_image("gA")
        parts = {a.id: Partition.from_assignment([0, 1])}
        graph = colabel.build_graph([a], regions_for([a], parts), [], {}, model,
                                    build_maps([a]), **ENERGY)
        for u in graph.problem.unary:
            assert ((u >= 0) & (u <= 20.0)).all()
        for _, _, table in graph.problem.edges:
            assert table.min() == pytest.approx(0.0, abs=1e-12)
            assert table.max() <= 20.0


def _match_loop(mask, x, y, regions):
    """The per-region loop over full-image masks: the first region of
    strictly largest IoU, if it reaches ``colabel.MATCH_MIN_IOU``."""
    mh, mw = mask.shape
    mask_area = int(mask.sum())
    best_iou, best_k = 0.0, None
    for region in regions:
        full = region.region_map == region.id[1]
        overlap = int((full[y:y + mh, x:x + mw] & mask).sum())
        if overlap == 0:
            continue
        iou = overlap / (int(full.sum()) + mask_area - overlap)
        if iou > best_iou:
            best_iou, best_k = iou, region.id[1]
    if best_k is not None and best_iou >= colabel.MATCH_MIN_IOU:
        return best_k
    return None


def _halves():
    """The regions of an 8x8 image split into left and right halves."""
    spmap = np.zeros((8, 8), dtype=np.int64)
    spmap[:, 4:] = 1
    return regions_of(make_image(spmap, image_id="i"), Partition.from_assignment([0, 1]))


class TestMatchTarget:
    def test_best_overlap_wins(self):
        m1 = np.zeros((8, 8), dtype=bool)
        m1[:, :4] = True
        region_map = (~m1).astype(np.int64)
        region_map.flags.writeable = False
        regions = [
            Region(id=("i", 0), superpixels=(0,), region_map=region_map,
                   bbox=(slice(0, 8), slice(0, 4)), area=32, centroid=(0.5, 0.25)),
            Region(id=("i", 1), superpixels=(1,), region_map=region_map,
                   bbox=(slice(0, 8), slice(4, 8)), area=32, centroid=(0.5, 0.75)),
        ]
        mask = np.ones((8, 3), dtype=bool)
        assert colabel.match_propagation_target(mask, 5, 0, regions) == 1

    def test_low_overlap_rejected(self):
        region_map = np.zeros((8, 8), dtype=np.int64)
        regions = [Region(id=("i", 0), superpixels=(0,), region_map=region_map,
                          bbox=(slice(0, 8), slice(0, 8)), area=64, centroid=(0.5, 0.5))]
        mask = np.ones((2, 2), dtype=bool)  # IoU = 4/64 < 0.3
        assert colabel.match_propagation_target(mask, 0, 0, regions) is None

    def test_tie_goes_to_the_first_region(self):
        regions = _halves()
        mask = np.ones((8, 4), dtype=bool)   # 16 pixels of each half: IoU 1/3 each
        assert colabel.match_propagation_target(mask, 2, 0, regions) == 0
        assert colabel.match_propagation_target(mask, 2, 0, regions[::-1]) == 1

    def test_no_overlap_is_no_match(self):
        regions = _halves()
        mask = np.zeros((3, 3), dtype=bool)
        assert colabel.match_propagation_target(mask, 0, 0, regions) is None

    @pytest.mark.parametrize("x, y, shape", [(-1, 0, (2, 2)), (0, -1, (2, 2)),
                                             (7, 0, (2, 2)), (0, 7, (2, 2)),
                                             (0, 0, (9, 1))])
    def test_mask_outside_image_rejected(self, x, y, shape):
        with pytest.raises(MalformedInputError, match="leaves the 8x8 image"):
            colabel.match_propagation_target(np.ones(shape, dtype=bool), x, y, _halves())

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_equals_per_region_loop(self, data):
        h, w = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        # a tiny alphabet makes equal-area regions, so equal IoUs, common
        values = np.array(data.draw(st.lists(st.integers(0, 2), min_size=h * w,
                                             max_size=h * w))).reshape(h, w)
        spmap, _ = label_components(values)
        m = int(spmap.max()) + 1
        assignment = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        regions = regions_of(make_image(spmap, image_id="i"),
                             Partition.from_assignment(assignment))
        regions = data.draw(st.permutations(regions))
        mh, mw = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
        # windows flush with each border are drawn as often as inner ones
        y = data.draw(st.sampled_from([0, h - mh]) | st.integers(0, h - mh))
        x = data.draw(st.sampled_from([0, w - mw]) | st.integers(0, w - mw))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=mh * mw,
                                           max_size=mh * mw))).reshape(mh, mw)
        assert (colabel.match_propagation_target(mask, x, y, regions)
                == _match_loop(mask, x, y, regions))
