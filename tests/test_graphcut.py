import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coparse import graphcut, kernels
from coparse.errors import MalformedInputError, OracleTooLargeError, SolverError


def potts_problem(unaries, lam, n_labels=2, chain=True):
    n = len(unaries)
    cands = tuple(np.arange(n_labels, dtype=np.int64) for _ in range(n))
    unary = tuple(np.asarray(u, dtype=np.float64) for u in unaries)
    table = lam * (1.0 - np.eye(n_labels))
    if chain:
        edges = tuple((i, i + 1, table) for i in range(n - 1))
    else:
        edges = ()
    return graphcut.LabelingProblem(candidates=cands, unary=unary, edges=edges)


def exhaustive_energy(problem):
    sizes = [c.size for c in problem.candidates]
    best, best_lab = np.inf, None
    for combo in itertools.product(*(range(s) for s in sizes)):
        lab = np.array([problem.candidates[i][combo[i]] for i in range(len(sizes))])
        e = graphcut.energy_of(problem, lab)
        if e < best - 1e-15:
            best, best_lab = e, lab
    return best, best_lab


class TestMaxFlow:
    def test_single_arc(self):
        net = graphcut.FlowNetwork(2, 0, 1)
        net.add_arc(0, 1, 3.0)
        res = graphcut.max_flow(net)
        assert res.flow == 3.0
        assert res.cut_capacity == 3.0

    def test_disconnected(self):
        net = graphcut.FlowNetwork(3, 0, 2)
        net.add_arc(0, 1, 5.0)
        res = graphcut.max_flow(net)
        assert res.flow == 0.0

    def test_diamond(self):
        net = graphcut.FlowNetwork(4, 0, 3)
        net.add_arc(0, 1, 2.0)
        net.add_arc(0, 2, 2.0)
        net.add_arc(1, 3, 1.0)
        net.add_arc(2, 3, 3.0)
        net.add_arc(1, 2, 1.0)
        res = graphcut.max_flow(net)
        # oracle: enumerate the 4 s/t cuts over {a, b}
        caps = {
            (0, 0): 1.0 + 3.0,            # a, b with s
            (0, 1): 1.0 + 2.0 + 1.0,      # a with s, b with t
            (1, 0): 2.0 + 3.0,            # a with t, b with s
            (1, 1): 2.0 + 2.0,            # a, b with t
        }
        assert min(caps.values()) == 4.0
        assert res.flow == 4.0
        assert res.cut_capacity == 4.0

    def test_flow_cut_mismatch_raises_solver_error(self, monkeypatch):
        net = graphcut.FlowNetwork(2, 0, 1)
        net.add_arc(0, 1, 3.0)
        monkeypatch.setattr(kernels, "dinic", lambda *args: 2.0)
        with pytest.raises(SolverError):
            graphcut.max_flow(net)

    def test_negative_capacity_rejected(self):
        net = graphcut.FlowNetwork(2, 0, 1)
        with pytest.raises(MalformedInputError):
            net.add_arc(0, 1, -1.0)

    def test_duality_on_random_integer_networks(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            net = graphcut.FlowNetwork(n, 0, n - 1)
            for _ in range(int(rng.integers(1, 4 * n))):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    net.add_arc(int(u), int(v), float(rng.integers(0, 20)))
            res = graphcut.max_flow(net)
            assert res.flow == res.cut_capacity  # exact for integer capacities
            assert res.source_side[0] and not res.source_side[n - 1]


    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_duality_with_float_capacities(self, data):
        n = data.draw(st.integers(2, 10))
        arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                            st.floats(0.0, 100.0)), max_size=4 * n))
        net = graphcut.FlowNetwork(n, 0, n - 1)
        for u, v, cap in arcs:
            if u != v:
                net.add_arc(u, v, cap)
        res = graphcut.max_flow(net)
        side = res.source_side
        assert side[0] and not side[n - 1]
        cut = sum(cap for u, v, cap in arcs if u != v and side[u] and not side[v])
        assert res.flow == pytest.approx(cut, rel=1e-9, abs=1e-9)
        assert res.cut_capacity == pytest.approx(cut, rel=1e-9, abs=1e-9)


class TestAlphaExpansion:
    def test_zero_pairwise_gives_unary_argmin(self):
        prob = potts_problem([(0.0, 2.0), (2.0, 0.0), (0.5, 0.1)], 0.0)
        res = graphcut.alpha_expansion(prob)
        assert res.labeling.tolist() == [0, 1, 1]

    def test_single_vertex(self):
        prob = potts_problem([(3.0, 1.0)], 1.0)
        res = graphcut.alpha_expansion(prob)
        assert res.labeling.tolist() == [1]
        assert res.energy == 1.0

    def test_three_chain_matches_exhaustive(self):
        prob = potts_problem([(0.0, 2.0), (2.0, 0.0), (0.0, 2.0)], 1.0)
        res = graphcut.alpha_expansion(prob)
        best, _ = exhaustive_energy(prob)
        assert best == 2.0
        assert res.energy == pytest.approx(best)

    def test_moves_strictly_decrease(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            unaries = [rng.uniform(0, 5, size=3) for _ in range(n)]
            prob = potts_problem(unaries, float(rng.uniform(0, 3)), n_labels=3)
            res = graphcut.alpha_expansion(prob)
            me = res.move_energies
            assert all(me[i + 1] < me[i] for i in range(len(me) - 1))

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_never_raises_the_energy(self, data):
        # arbitrary tables, non-submodular ones included
        n = data.draw(st.integers(1, 6))
        energy = st.floats(-5.0, 5.0)
        cands = tuple(np.array(sorted(data.draw(st.sets(st.integers(0, 3), min_size=1))))
                      for _ in range(n))
        unary = tuple(np.array(data.draw(st.lists(energy, min_size=c.size, max_size=c.size)))
                      for c in cands)
        edges = []
        for u, v in data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            if u < v:
                values = data.draw(st.lists(energy, min_size=cands[u].size * cands[v].size,
                                            max_size=cands[u].size * cands[v].size))
                edges.append((u, v, np.array(values).reshape(cands[u].size, cands[v].size)))
        prob = graphcut.LabelingProblem(candidates=cands, unary=unary, edges=tuple(edges))
        initial = np.array([data.draw(st.sampled_from(c.tolist())) for c in cands])
        res = graphcut.alpha_expansion(prob, initial=initial)
        assert res.energy == graphcut.energy_of(prob, res.labeling)
        assert res.energy <= graphcut.energy_of(prob, initial)
        steps = (graphcut.energy_of(prob, initial),) + res.move_energies
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_candidate_sets_respected(self):
        cands = (np.array([0, 2]), np.array([1, 2]))
        unary = (np.array([0.0, 5.0]), np.array([0.0, 5.0]))
        table = np.zeros((2, 2))
        prob = graphcut.LabelingProblem(candidates=cands, unary=unary,
                                        edges=((0, 1, table),))
        res = graphcut.alpha_expansion(prob)
        assert res.labeling[0] in {0, 2}
        assert res.labeling[1] in {1, 2}

    def test_invalid_initial_labeling_rejected(self):
        prob = potts_problem([(0.0, 1.0)], 0.0)
        with pytest.raises(MalformedInputError):
            graphcut.alpha_expansion(prob, initial=np.array([7]))

    def test_non_submodular_literal_tables_still_decrease(self):
        # tables rewarding equal labels can violate submodularity after shifts
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = 4
            cands = tuple(np.arange(3, dtype=np.int64) for _ in range(n))
            unary = tuple(rng.uniform(0, 3, size=3) for _ in range(n))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    table = rng.uniform(0, 2, size=(3, 3))
                    table -= table.min()
                    edges.append((u, v, table))
            prob = graphcut.LabelingProblem(candidates=cands, unary=unary,
                                            edges=tuple(edges))
            res = graphcut.alpha_expansion(prob)
            best, _ = exhaustive_energy(prob)
            assert res.energy >= best - 1e-9
            me = res.move_energies
            assert all(me[i + 1] < me[i] for i in range(len(me) - 1))


class TestBruteForceMap:
    def test_single_vertex_argmin(self):
        cands = (np.array([0, 1]),)
        unary = (np.array([1.0, 0.0]),)
        prob = graphcut.LabelingProblem(candidates=cands, unary=unary)
        lab, energy = graphcut.brute_force_map(prob)
        assert lab.tolist() == [1]
        assert energy == 0.0

    def test_zero_energy_picks_lexicographic_smallest(self):
        cands = tuple(np.array([2, 5, 9]) for _ in range(3))
        unary = tuple(np.zeros(3) for _ in range(3))
        prob = graphcut.LabelingProblem(candidates=cands, unary=unary)
        lab, energy = graphcut.brute_force_map(prob)
        assert lab.tolist() == [2, 2, 2]
        assert energy == 0.0

    def test_size_cap(self):
        cands = tuple(np.arange(8, dtype=np.int64) for _ in range(8))
        unary = tuple(np.zeros(8) for _ in range(8))
        prob = graphcut.LabelingProblem(candidates=cands, unary=unary)
        with pytest.raises(OracleTooLargeError):
            graphcut.brute_force_map(prob)

    def test_expansion_never_beats_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            n_labels = int(rng.integers(2, 5))
            lam = float(rng.uniform(0, 4))
            unaries = [rng.uniform(0, 5, size=n_labels) for _ in range(n)]
            prob = potts_problem(unaries, lam, n_labels=n_labels)
            lab, best = graphcut.brute_force_map(prob)
            res = graphcut.alpha_expansion(prob)
            assert best <= res.energy + 1e-9
            assert best == pytest.approx(exhaustive_energy(prob)[0])
