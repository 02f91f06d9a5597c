"""Each kernel against a straightforward reference loop."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from coparse import colabel, features, kernels, pipeline, synthgen


def _cell_histograms_ref(mag, obin, cells_y, cells_x):
    out = np.zeros((cells_y, cells_x, 9), np.float64)
    for r in range(cells_y * 8):
        for c in range(cells_x * 8):
            out[r // 8, c // 8, obin[r, c]] += mag[r, c]
    return out


def _score_windows_ref(blocks, win_by, win_bx, wvec, step):
    by, bx, d = blocks.shape
    ny = (by - win_by) // step + 1
    nx = (bx - win_bx) // step + 1
    out = np.zeros((ny, nx), np.float64)
    for i in range(ny):
        for j in range(nx):
            s = 0.0
            for a in range(win_by):
                for b in range(win_bx):
                    base = (a * win_bx + b) * d
                    r0 = i * step + a
                    c0 = j * step + b
                    for q in range(d):
                        s += blocks[r0, c0, q] * wvec[base + q]
            out[i, j] = s
    return out


def _multicut_objective_ref(a, edge_u, edge_v, edge_w, mask_ptr, mask_ids, mask_h):
    """One assignment's objective in Python floats: edges, then masks, in order."""
    obj = 0.0
    for e in range(edge_u.shape[0]):
        if a[edge_u[e]] == a[edge_v[e]]:
            obj += float(edge_w[e])
    for c in range(mask_h.shape[0]):
        ids = mask_ids[mask_ptr[c]:mask_ptr[c + 1]]
        if (a[ids] == a[ids[0]]).all():
            obj -= float(mask_h[c])
    return obj


def _multicut_enumerate_ref(n, *terms):
    """Walk the restricted-growth strings one by one; strict ``<`` keeps the first best."""
    a = np.zeros(n, np.int64)
    m = np.zeros(n, np.int64)
    best = np.inf
    best_a = np.zeros(n, np.int64)
    while True:
        obj = _multicut_objective_ref(a, *terms)
        if obj < best:
            best = obj
            best_a = a.copy()
        i = n - 1
        while i > 0:
            if a[i] <= m[i - 1]:
                a[i] += 1
                m[i] = max(a[i], m[i - 1])
                a[i + 1:] = 0
                m[i + 1:] = m[i]
                break
            i -= 1
        if i == 0:
            break
    return best, best_a


def random_cell_inputs(rng, cy, cx):
    h, w = cy * 8 + 3, cx * 8 + 5  # ragged edges must be ignored
    mag = rng.uniform(0, 10, size=(h, w))
    obin = rng.integers(0, 9, size=(h, w))
    return mag, obin


class TestCellHistograms:
    def test_numpy_matches_python(self):
        rng = np.random.default_rng(0)
        mag, obin = random_cell_inputs(rng, 3, 4)
        a = kernels.cell_histograms(mag, obin, 3, 4)
        b = _cell_histograms_ref(mag, obin, 3, 4)
        assert np.allclose(a, b)


def _svm_dual_instance(rng):
    """Chi-square RBF kernel SVM dual on random histograms, as colabel builds it."""
    n = int(rng.integers(2, 50))
    hists = rng.dirichlet(np.ones(40) * rng.uniform(0.2, 3.0), size=n)
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    dists = features.chi_square(hists[:, None], hists[None])
    k = np.exp(-dists / max(float(np.median(dists)), 1e-12))
    return k, y, float(rng.choice([0.1, 1.0, 10.0]))


def _dual_coordinate_ascent_numpy(kernel, y, c, max_sweeps=200):
    """Coordinate ascent on the SVM dual, one variable at a time, for at most
    ``max_sweeps`` sweeps: the reference whose dual objective
    ``kernels.solve_box_qp`` must reach."""
    n = y.size
    alpha = np.zeros(n)
    f = np.zeros(n)
    for _ in range(max_sweeps):
        biggest = 0.0
        for i in range(n):
            new = alpha[i] + (1.0 - y[i] * f[i]) / kernel[i, i]
            new = min(max(new, 0.0), c)
            delta = new - alpha[i]
            if delta != 0.0:
                alpha[i] = new
                f += delta * y[i] * kernel[:, i]
                biggest = max(biggest, abs(delta))
        if biggest < 1e-8:
            return alpha, False
    return alpha, True


class TestSolveBoxQP:
    def test_reaches_coordinate_ascent_dual_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k, y, c = _svm_dual_instance(rng)
            q = k * np.outer(y, y)
            alpha, gap = kernels.solve_box_qp(q, c)
            reference, _ = _dual_coordinate_ascent_numpy(k, y, c)
            dual = alpha.sum() - 0.5 * alpha @ q @ alpha
            dual_ref = reference.sum() - 0.5 * reference @ q @ reference
            # equal optima may differ in the last bits of their evaluation
            assert dual >= dual_ref - 1e-12 * max(1.0, abs(dual_ref))
            assert ((alpha >= 0.0) & (alpha <= c)).all()
            margins = q @ alpha
            primal = 0.5 * alpha @ margins + c * np.maximum(0.0, 1.0 - margins).sum()
            assert gap == pytest.approx(max(primal - dual, 0.0), abs=1e-12)

    def test_reaches_coordinate_ascent_dual_objective_on_cv_models(self, monkeypatch):
        # the appearance machines of folds 3 and 4 of the seed-42 10-fold CV,
        # on which the reference ascent stops at its 200-sweep cap
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=42), 20)
        ids = [rec.id for rec in corpus.images]
        folds = pipeline.fold_assignment(ids, 10, 42)
        captured = []
        monkeypatch.setattr(colabel, "train_appearance",
                            lambda hists, labels, vocab_size: captured.append((hists, labels)))
        maps = pipeline.build_maps(corpus.images)
        image = {rec.id: rec for rec in corpus.images}
        for fold in (3, 4):
            pipeline.train_label_model(corpus.vocabulary, [
                pipeline.ground_truth_rows(image[i], maps[i])
                for i in sorted(i for i in ids if folds[i] != fold)])
        checked = 0
        for hists, labels in captured:
            dists = features.chi_square(hists[:, None], hists[None])
            gamma = 1.0 / float(np.median(dists[np.triu_indices(len(hists), k=1)]))
            present = sorted(set(labels.tolist()))
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    idx = np.flatnonzero((labels == a) | (labels == b))
                    y = np.where(labels[idx] == a, 1.0, -1.0)
                    k = np.exp(-gamma * dists[np.ix_(idx, idx)])
                    q = k * np.outer(y, y)
                    alpha, _ = kernels.solve_box_qp(q, 10.0)
                    reference, _ = _dual_coordinate_ascent_numpy(k, y, 10.0)
                    assert (alpha.sum() - 0.5 * alpha @ q @ alpha
                            >= reference.sum() - 0.5 * reference @ q @ reference), (a, b)
                    checked += 1
        assert checked >= 20

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 12),
           st.integers(0, 5))
    def test_optimal_on_random_psd_matrices(self, seed, rows, dim, copies):
        # the Gram matrix of random signed rows, singular when there are
        # fewer feature dimensions than rows or some rows repeat
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 3.0)
        x = np.vstack([x, x[rng.integers(0, rows, size=copies)]])
        q = x @ x.T
        c = rng.choice([0.01, 0.1, 1.0, 10.0], size=len(x)) * rng.uniform(0.5, 2.0, len(x))
        iterates = []
        alpha, gap = kernels.solve_box_qp(q, c, callback=iterates.append)
        assert ((alpha >= 0.0) & (alpha <= c)).all()
        # KKT: no variable can lower f by moving into the box
        grad = q @ alpha - 1.0
        assert (grad[alpha < c] >= -1e-9).all() and (grad[alpha > 0.0] <= 1e-9).all()
        margins = q @ alpha
        primal = 0.5 * alpha @ margins + c @ np.maximum(0.0, 1.0 - margins)
        dual = alpha.sum() - 0.5 * alpha @ margins
        assert gap == pytest.approx(max(primal - dual, 0.0), abs=1e-12)
        assert gap <= 1e-9
        # the callback saw the returned point last, and f fell at every step
        assert iterates == [] or iterates[-1].tobytes() == alpha.tobytes()
        objectives = [0.0] + [0.5 * float(a @ (q @ a)) - float(a.sum()) for a in iterates]
        assert all(b < a for a, b in zip(objectives, objectives[1:]))

    def test_per_sample_bounds(self):
        # orthogonal signed rows of norm 2 decouple into min 2a^2 - a, a <= c:
        # the first bound binds, the second does not
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        alpha, gap = kernels.solve_box_qp(x @ x.T, np.array([0.1, 10.0]))
        assert alpha == pytest.approx([0.1, 0.25], abs=1e-9)
        assert gap <= 1e-9


class TestNewtonStep:
    """``_newton_step`` against scipy's Cholesky solve, which it replaced."""

    @staticmethod
    def reference(q, g, free):
        qf, gf = q[np.ix_(free, free)], g[free]
        try:
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(qf), -gf), True
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(qf, -gf, rcond=None)[0], False

    @staticmethod
    def gram_block(seed, rows, dim):
        """A signed Gram matrix of ``rows`` random rows in ``dim`` dimensions,
        a gradient and a free set of at least one variable."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 3.0)
        y = rng.choice([-1.0, 1.0], size=rows)
        free = rng.uniform(size=rows) < 0.8
        free[rng.integers(0, rows)] = True
        return (x @ x.T) * np.outer(y, y), rng.standard_normal(rows), free

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(0, 30))
    def test_matches_cho_solve_on_positive_definite_blocks(self, seed, rows, extra):
        # twice as many dimensions as rows, and more, keep the block well
        # conditioned
        q, g, free = self.gram_block(seed, rows, 2 * rows + 2 + extra)
        d, exact = kernels._newton_step(q, g, free)
        reference, reference_exact = self.reference(q, g, free)
        assert exact and reference_exact
        assert (d[~free] == 0.0).all()
        np.testing.assert_allclose(d[free], reference, rtol=1e-10, atol=0.0)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 29))
    def test_positive_definiteness_flag_matches_on_rank_deficient_blocks(self, seed, rows, dim):
        q, g, free = self.gram_block(seed, rows, min(dim, rows - 1))
        d, exact = kernels._newton_step(q, g, free)
        reference, reference_exact = self.reference(q, g, free)
        qf = q[np.ix_(free, free)]
        try:
            np.linalg.solve(qf, -g[free])
            lu_solves = True
        except np.linalg.LinAlgError:
            lu_solves = False
        # positive definite only by rounding, a block can leave LU an exact
        # zero pivot: then the step is not exact, whatever Cholesky says
        assert exact == (reference_exact and lu_solves)
        if not exact:
            lstsq = np.linalg.lstsq(qf, -g[free], rcond=None)[0]
            assert d[free].tobytes() == lstsq.tobytes()
        assert (d[~free] == 0.0).all()


class TestScoreWindows:
    def cases(self, rng):
        for by, bx, wy, wx, step in [(7, 7, 3, 3, 1), (10, 6, 5, 2, 1), (9, 9, 3, 3, 2)]:
            blocks = rng.standard_normal((by, bx, 36))
            wvec = rng.standard_normal(wy * wx * 36)
            yield blocks, wy, wx, wvec, step

    def test_numpy_matches_python(self):
        rng = np.random.default_rng(2)
        for blocks, wy, wx, wvec, step in self.cases(rng):
            a = kernels.score_windows(blocks, wy, wx, wvec, step)
            b = _score_windows_ref(blocks, wy, wx, wvec, step)
            assert np.allclose(a, b)


def random_multicut_terms(rng, n, weights):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < 0.6]
    eu = np.array([p[0] for p in pairs], dtype=np.int64)
    ev = np.array([p[1] for p in pairs], dtype=np.int64)
    ew = weights(len(pairs))
    ids, mask_ptr, mask_h = [], [0], []
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(1, n + 1))
        ids.extend(sorted(rng.choice(n, size=size, replace=False)))
        mask_ptr.append(len(ids))
        mask_h.append(rng.uniform())
    return (eu, ev, ew, np.array(mask_ptr, dtype=np.int64),
            np.array(ids, dtype=np.int64), np.array(mask_h, dtype=np.float64))


class TestMulticutObjectives:
    def test_rgs_argmin_matches_python_walk(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            # weights of +-0.5 tie on purpose
            terms = random_multicut_terms(rng, n, lambda m: rng.integers(0, 2, size=m) - 0.5)
            obj_ref, a_ref = _multicut_enumerate_ref(n, *terms)
            table = kernels.rgs_table(n)
            obj = kernels.multicut_objectives(table, *terms)
            best = int(np.argmin(obj))
            assert obj[best] == obj_ref
            assert np.array_equal(table[:, best], a_ref)

    def test_every_column_matches_python_scorer(self):
        # weights d - theta with theta off a power of two round differently
        # in another order, so equality pins the edge-then-mask order
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            terms = random_multicut_terms(
                rng, n, lambda m: rng.integers(0, 2, size=m) - rng.uniform(size=m))
            tables = (kernels.rgs_table(n),
                      rng.integers(0, n, size=(n, 50)).astype(np.int32))
            for table in tables:
                obj = kernels.multicut_objectives(table, *terms)
                assert obj.dtype == np.float64
                assert obj.tolist() == [_multicut_objective_ref(table[:, k], *terms)
                                        for k in range(table.shape[1])]


    @pytest.mark.parametrize("seed", [8, 9])
    def test_narrow_and_wide_tables_give_the_same_bits(self, seed):
        # a column scores the same bits alone, as the solver passes a
        # rounded point, as in a wide table, as the oracle passes every
        # partition; zero rewards and edge weights d - theta are included
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            terms = random_multicut_terms(
                rng, n, lambda m: rng.integers(0, 2, size=m) - rng.uniform(size=m))
            terms = terms[:5] + (np.where(rng.uniform(size=terms[5].size) < 0.3, 0.0,
                                          terms[5]),)
            table = rng.integers(0, n, size=(n, int(rng.integers(0, 200)))).astype(
                rng.choice([np.int8, np.int32, np.int64]))
            whole = kernels.multicut_objectives(table, *terms)
            for k in range(min(table.shape[1], 5)):
                one = kernels.multicut_objectives(table[:, k:k + 1], *terms)
                assert one.tobytes() == whole[k:k + 1].tobytes()
            cut = int(rng.integers(0, table.shape[1] + 1))
            assert (kernels.multicut_objectives(table[:, cut:], *terms).tobytes()
                    == whole[cut:].tobytes())

    @pytest.mark.parametrize("cols", [1, 2, 37, kernels.NARROW_COLUMNS,
                                      kernels.NARROW_COLUMNS + 1, 3000])
    def test_chunk_boundaries(self, cols):
        # 60 nodes and 600 edges: a narrow table takes them in one pass, the
        # widest one edge at a time; edge weights d - theta and zero rewards
        # are included
        rng = np.random.default_rng(cols)
        n = 60
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        eu, ev = pairs[np.sort(rng.choice(len(pairs), size=600, replace=False))].T
        ew = rng.integers(0, 2, size=eu.size) - rng.uniform(size=eu.size)
        ids = [np.sort(rng.choice(n, size=int(rng.integers(2, 6)), replace=False))
               for _ in range(8)]
        mask_ptr = np.cumsum([0] + [i.size for i in ids])
        mask_h = np.where(rng.uniform(size=8) < 0.4, 0.0, rng.uniform(size=8))
        terms = (eu, ev, ew, mask_ptr, np.concatenate(ids), mask_h)
        # few regions, so that many edges and masks are merged
        table = rng.integers(0, 3, size=(n, cols)).astype(np.int8)
        obj = kernels.multicut_objectives(table, *terms)
        assert obj.tolist() == [_multicut_objective_ref(table[:, k], *terms)
                                for k in range(cols)]


def _components_ref(n, u, v):
    """Union-find with path halving; each node labelled with the smallest
    node of its set."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    smallest = {}
    for a in range(n):
        smallest.setdefault(find(a), a)
    return [smallest[find(a)] for a in range(n)]


def _canonical(labels):
    """Labels renumbered by first occurrence, so equal partitions compare equal."""
    seen = {}
    return [seen.setdefault(label, len(seen)) for label in labels]


@st.composite
def component_graphs(draw):
    """A node count and edge lists, with repeated and reversed pairs."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n, [a for a, _ in pairs], [b for _, b in pairs]


class TestComponents:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(component_graphs())
    def test_equals_union_find(self, graph):
        n, u, v = graph
        labels = kernels.components(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
        ref = _components_ref(n, u, v)
        assert labels.dtype == np.int64 and labels.shape == (n,)
        assert _canonical(labels.tolist()) == _canonical(ref)
        assert labels.tolist() == ref

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_no_pairs_leaves_every_node_alone(self, n):
        empty = np.zeros(0, dtype=np.int64)
        assert kernels.components(n, empty, empty).tolist() == list(range(n))

    def test_repeated_pairs(self):
        u, v = np.array([3, 1, 3, 1, 4, 1]), np.array([1, 3, 1, 3, 4, 1])
        assert kernels.components(5, u, v).tolist() == [0, 1, 2, 1, 4]

    @pytest.mark.parametrize("relabel", [False, True])
    def test_serpentine_chain(self, relabel):
        # a path that snakes through a 40 x 30 grid, row by row, so that
        # consecutive nodes of a row-major numbering are far apart on it;
        # relabelled at random, its edges are also shuffled
        rows, cols = 40, 30
        order = np.concatenate([np.arange(r * cols, (r + 1) * cols)[::1 - 2 * (r % 2)]
                                for r in range(rows)])
        rng = np.random.default_rng(3)
        if relabel:
            order = rng.permutation(rows * cols)[order]
        u, v = order[:-1], order[1:]
        if relabel:
            shuffle = rng.permutation(u.size)
            u, v = u[shuffle], v[shuffle]
        labels = kernels.components(rows * cols, u, v)
        assert labels.tolist() == [0] * (rows * cols)
        # two chains: the halves of the path, cut in the middle
        half = u.size // 2
        keep = np.flatnonzero(~((u == order[half]) & (v == order[half + 1])
                                | (v == order[half]) & (u == order[half + 1])))
        labels = kernels.components(rows * cols, u[keep], v[keep])
        assert labels.tolist() == _components_ref(rows * cols, u[keep].tolist(),
                                                  v[keep].tolist())
        assert np.unique(labels).size == 2
