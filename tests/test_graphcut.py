import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from coparse import graphcut, kernels, pipeline
from coparse.errors import MalformedInputError, OracleTooLargeError, SolverError


MAX_SWEEPS = pipeline.Config().max_sweeps


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


def draw_problem(data, n_max=6, n_labels=4, energy=st.floats(-5.0, 5.0)):
    """Random candidate sets with arbitrary (non-submodular) tables of
    ``energy`` values."""
    n = data.draw(st.integers(1, n_max))
    cands = tuple(np.array(sorted(data.draw(st.sets(st.integers(0, n_labels - 1), min_size=1))))
                  for _ in range(n))
    unary = tuple(np.array(data.draw(st.lists(energy, min_size=c.size, max_size=c.size)))
                  for c in cands)
    edges = []
    for u, v in data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if u < v:
            values = data.draw(st.lists(energy, min_size=cands[u].size * cands[v].size,
                                        max_size=cands[u].size * cands[v].size))
            edges.append((u, v, np.array(values).reshape(cands[u].size, cands[v].size)))
    return graphcut.LabelingProblem(candidates=cands, unary=unary, edges=tuple(edges))


def python_energy(problem, pos):
    """Reference scorer: one labeling's terms in a plain loop, unaries first."""
    total = 0.0
    for i, unary in enumerate(problem.unary):
        total += float(unary[pos[i]])
    for u, v, table in problem.edges:
        total += float(table[pos[u], pos[v]])
    return total


def python_positions(problem, labeling):
    """Reference: each vertex's label looked up in its own candidate array."""
    pos = []
    for i, cand in enumerate(problem.candidates):
        j = int(np.searchsorted(cand, labeling[i]))
        if j >= cand.size or cand[j] != labeling[i]:
            return None
        pos.append(j)
    return pos


def arc_arrays(arcs):
    """The (tail, head, capacity) arrays of a list of (u, v, capacity) arcs."""
    tail, head, capacity = zip(*arcs) if arcs else ((), (), ())
    return (np.array(tail, dtype=np.int64), np.array(head, dtype=np.int64),
            np.array(capacity, dtype=np.float64))


def arc_lists(node_count, arcs):
    """Reference: Dinic's residual lists built by appending one arc at a
    time: arc k goes onto its tail's list as residual arc 2k, and its reverse
    onto its head's list as 2k + 1."""
    adj = [[] for _ in range(node_count)]
    arc_to, cap = [], []
    for u, v, capacity in arcs:
        adj[u].append(len(arc_to))
        adj[v].append(len(arc_to) + 1)
        arc_to.extend([v, u])
        cap.extend([float(capacity), 0.0])
    return adj, arc_to, cap


def residual_source_side(node_count, source, arc_to, cap):
    """Reference: BFS from the source over arcs of residual capacity > 1e-12."""
    to = np.asarray(arc_to)
    frm = to.reshape(-1, 2)[:, ::-1].ravel()   # an arc's tail is its partner's head
    open_arc = np.asarray(cap) > 1e-12
    residual = sparse.csr_array((np.ones(open_arc.sum()), (frm[open_arc], to[open_arc])),
                                shape=(node_count, node_count))
    side = np.zeros(node_count, dtype=bool)
    side[csgraph.breadth_first_order(residual, source, return_predecessors=False)] = True
    return side


def reference_expansion_move(problem, pos_cur, col):
    """Reference: the alpha-expansion move built edge by edge from the
    problem's own tables, with a branch per moving end, and cut by
    ``graphcut.max_flow``."""
    pos_alpha = problem.label_positions[:, col]
    movers = np.flatnonzero((pos_alpha >= 0) & (pos_cur != pos_alpha))
    if movers.size == 0:
        return None
    node_of = {int(v): i for i, v in enumerate(movers)}
    m = movers.size
    to = np.where(pos_alpha >= 0, pos_alpha, pos_cur)
    delta = np.array([problem.unary[v][pos_alpha[v]] - problem.unary[v][pos_cur[v]]
                      for v in movers])
    pair_arcs = []
    truncated = 0
    for u, v, table in problem.edges:
        iu, iv = node_of.get(u), node_of.get(v)
        if iu is None and iv is None:
            continue
        a = float(table[pos_cur[u], pos_cur[v]])
        b = float(table[pos_cur[u], to[v]])
        c = float(table[to[u], pos_cur[v]])
        d = float(table[to[u], to[v]])
        if a + d > b + c:
            d = b + c - a
            truncated += 1
        if iu is not None:
            delta[iu] += c - a
        if iv is not None:
            delta[iv] += d - c
        if iu is not None and iv is not None and b + c - a - d > 1e-15:
            pair_arcs.append((iu, iv, b + c - a - d))
    source, sink = m, m + 1
    arcs = []
    for i in range(m):
        if delta[i] > 0:
            arcs.append((source, i, delta[i]))
        elif delta[i] < 0:
            arcs.append((i, sink, -delta[i]))
    arcs.extend(pair_arcs)
    switch = movers[~graphcut.max_flow(m + 2, source, sink, *arc_arrays(arcs)).source_side[:m]]
    pos = pos_cur.copy()
    pos[switch] = pos_alpha[switch]
    return pos, truncated


def built_move(build, problem, pos, col):
    """``build``'s move as (positions, truncated) or None, and each network it
    cuts as (nodes, source, sink, arc tails, arc heads, capacity bytes)."""
    networks = []
    max_flow = graphcut.max_flow
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphcut, "max_flow", lambda n, s, t, tail, head, cap: networks.append(
            (n, s, t, np.asarray(tail).tolist(), np.asarray(head).tolist(),
             np.asarray(cap).tobytes())) or max_flow(n, s, t, tail, head, cap))
        move = build(problem, pos, col)
    return (None if move is None else (move[0].tolist(), move[1])), networks


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
        res = graphcut.max_flow(2, 0, 1, [0], [1], [3.0])
        assert res.flow == 3.0
        assert res.cut_capacity == 3.0

    def test_disconnected(self):
        res = graphcut.max_flow(3, 0, 2, [0], [1], [5.0])
        assert res.flow == 0.0

    def test_diamond(self):
        res = graphcut.max_flow(4, 0, 3, [0, 0, 1, 2, 1], [1, 2, 3, 3, 2],
                                [2.0, 2.0, 1.0, 3.0, 1.0])
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
        # a flow of 2 with only the source on its side: the cut carries 3
        monkeypatch.setattr(kernels, "dinic", lambda n, s, *args: (2.0, np.arange(n) == s))
        with pytest.raises(SolverError):
            graphcut.max_flow(2, 0, 1, [0], [1], [3.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(MalformedInputError):
            graphcut.max_flow(2, 0, 1, [0], [1], [-1.0])

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf, -1.0, -1e-300,
                                          np.float64(-2.0), np.float64(np.nan),
                                          np.float64(np.inf)])
    def test_non_finite_or_negative_capacity_rejected(self, capacity):
        with pytest.raises(MalformedInputError):
            graphcut.max_flow(2, 0, 1, [0], [1], [capacity])
        # also behind a valid arc
        with pytest.raises(MalformedInputError):
            graphcut.max_flow(3, 0, 2, [0, 1], [1, 2], [1.0, capacity])

    @pytest.mark.parametrize("capacity", [0.0, -0.0, 2, 1e308, np.float64(2.5), np.int64(3)])
    def test_finite_non_negative_capacity_accepted(self, capacity):
        assert graphcut.max_flow(2, 0, 1, [0], [1], [capacity]).flow == float(capacity)

    @pytest.mark.parametrize("network", [
        (2, 0, 0, [], [], []),                                # source is the sink
        (1, 0, 0, [], [], []),                                # one node
        (2, 0, 2, [], [], []),                                # sink out of range
        (2, -1, 1, [], [], []),                               # source out of range
        (3, 0, 2, [0, 1], [1], [1.0, 1.0]),                   # lengths differ
        (3, 0, 2, [0, 1], [1, 2], [1.0]),
        (3, 0, 2, [[0, 1]], [[1, 2]], [[1.0, 1.0]]),          # 2-D arrays
        (3, 0, 2, 0, 1, 1.0),                                 # 0-D arrays
        (3, 0, 2, [0, 1], [1, 1], [1.0, 1.0]),                # a self-loop
        (3, 0, 2, [0, -1], [1, 2], [1.0, 1.0]),               # a tail out of range
        (3, 0, 2, [0, 1], [1, 3], [1.0, 1.0]),                # a head out of range
    ])
    def test_malformed_network_rejected(self, network):
        with pytest.raises(MalformedInputError):
            graphcut.max_flow(*network)

    def test_duality_on_random_integer_networks(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            arcs = []
            for _ in range(int(rng.integers(1, 4 * n))):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    arcs.append((int(u), int(v), float(rng.integers(0, 20))))
            res = graphcut.max_flow(n, 0, n - 1, *arc_arrays(arcs))
            assert res.flow == res.cut_capacity  # exact for integer capacities
            assert res.source_side[0] and not res.source_side[n - 1]


    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_duality_with_float_capacities(self, data):
        n = data.draw(st.integers(2, 10))
        arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                            st.floats(0.0, 100.0)), max_size=4 * n))
        res = graphcut.max_flow(n, 0, n - 1, *arc_arrays([a for a in arcs if a[0] != a[1]]))
        side = res.source_side
        assert side[0] and not side[n - 1]
        cut = sum(cap for u, v, cap in arcs if u != v and side[u] and not side[v])
        assert res.flow == pytest.approx(cut, rel=1e-9, abs=1e-9)
        assert res.cut_capacity == pytest.approx(cut, rel=1e-9, abs=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_dinic_gets_the_arcs_in_arc_order(self, data):
        # Dinic must get the lists that appending the arcs one by one builds,
        # so that it augments in the same order: the same flow bits, cut side
        # and residual capacities
        n = data.draw(st.integers(2, 10))
        capacity = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 1e-13, 1e-11, 1.0]))
        arcs = [(u, v, cap) for u, v, cap in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacity), max_size=5 * n))
            if u != v]
        seen = []
        dinic = kernels.dinic
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "dinic", lambda *args: seen.append(args) or dinic(*args))
            res = graphcut.max_flow(n, 0, n - 1, *arc_arrays(arcs))
        adj, arc_to, cap = arc_lists(n, arcs)
        flow, side = dinic(n, 0, n - 1, adj, arc_to, cap)
        [(nodes, source, sink, got_adj, got_to, got_cap)] = seen
        assert (nodes, source, sink, got_adj, got_to) == (n, 0, n - 1, adj, arc_to)
        assert np.array(got_cap).tobytes() == np.array(cap).tobytes()
        assert np.float64(res.flow).tobytes() == np.float64(flow).tobytes()
        assert res.source_side.tolist() == side.tolist()

    def test_dinic_side_is_residual_reachability(self):
        rng = np.random.default_rng(47)
        for trial in range(200):
            n = int(rng.integers(2, 30))
            arcs = []
            for _ in range(int(rng.integers(0, 5 * n))):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    # integer, float, and tiny capacities near the 1e-12 residual test
                    cap = [rng.integers(0, 20), rng.uniform(0.0, 10.0),
                           rng.choice([0.0, 1e-13, 1e-11, 1e-6, 1.0])][trial % 3]
                    arcs.append((int(u), int(v), float(cap)))
            adj, arc_to, cap = arc_lists(n, arcs)
            flow, side = kernels.dinic(n, 0, n - 1, adj, arc_to, cap)
            assert side.tolist() == residual_source_side(n, 0, arc_to, cap).tolist()
            assert flow == graphcut.max_flow(n, 0, n - 1, *arc_arrays(arcs)).flow


class TestScorer:
    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_energies_match_python_loop(self, data):
        prob = draw_problem(data)
        k = data.draw(st.integers(1, 8))
        pos = np.array([[data.draw(st.integers(0, c.size - 1)) for c in prob.candidates]
                        for _ in range(k)], dtype=np.int64)
        energies = prob.energies(pos)
        for r in range(k):
            assert energies[r] == python_energy(prob, pos[r])
            labeling = np.array([c[p] for c, p in zip(prob.candidates, pos[r])])
            assert graphcut.energy_of(prob, labeling) == energies[r]

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_positions_match_per_vertex_lookup(self, data):
        prob = draw_problem(data, n_labels=5)
        labeling = np.array(data.draw(st.lists(st.integers(-1, 5), min_size=len(prob.candidates),
                                               max_size=len(prob.candidates))))
        expected = python_positions(prob, labeling)
        if expected is None:
            with pytest.raises(MalformedInputError):
                prob.positions(labeling)
        else:
            assert prob.positions(labeling).tolist() == expected

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_lowest_unary_and_labels_match_per_vertex(self, data):
        # unaries from a few values, -0.0 and 0.0 among them, so that ties occur
        prob = draw_problem(data, n_max=8, n_labels=6,
                            energy=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]))
        lowest = prob.lowest_unary()
        assert lowest.tolist() == [int(np.argmin(un)) for un in prob.unary]
        pos = np.array([data.draw(st.integers(0, c.size - 1)) for c in prob.candidates])
        for p in (lowest, pos):
            labels = prob.labels_of(p)
            assert labels.dtype == np.int64
            assert labels.tolist() == [int(cand[i]) for cand, i in zip(prob.candidates, p)]
        for i, cand in enumerate(prob.candidates):
            row = prob.label_positions[i]
            assert row[np.searchsorted(prob.labels, cand)].tolist() == list(range(cand.size))
            assert (row >= 0).sum() == cand.size

    @pytest.mark.parametrize("candidates, unary, edges", [
        ((), (), ()),                                                 # no vertex
        ((np.array([0]),), (), ()),                                   # no unary
        ((np.array([], dtype=np.int64),), (np.zeros(0),), ()),        # an empty set
        ((np.array([[0, 1]]),), (np.zeros((1, 2)),), ()),             # a 2-D set
        ((np.array([0, 1]), np.array([1, 0])), (np.zeros(2),) * 2, ()),    # descending
        ((np.array([0, 1]), np.array([2, 2])), (np.zeros(2),) * 2, ()),    # repeated
        ((np.array([0, 1]),), (np.zeros(3),), ()),                    # unary too long
        ((np.array([0, 1]),), (np.array([0.0, np.nan]),), ()),        # unary non-finite
        ((np.array([0]), np.array([1, 2])), (np.zeros(1), np.array([np.inf, 0.0])), ()),
        ((np.array([0]), np.array([1])), (np.zeros(1),) * 2, ((0, 2, np.zeros((1, 1))),)),
        ((np.array([0]), np.array([1])), (np.zeros(1),) * 2, ((-1, 1, np.zeros((1, 1))),)),
        ((np.array([0]), np.array([1])), (np.zeros(1),) * 2, ((1, 1, np.zeros((1, 1))),)),
        ((np.array([0]), np.array([1, 2])), (np.zeros(1), np.zeros(2)),
         ((0, 1, np.zeros((2, 1))),)),                                # table shape
        ((np.array([0]), np.array([1, 2])), (np.zeros(1), np.zeros(2)),
         ((0, 1, np.zeros((1, 2))), (1, 0, np.array([[0.0], [np.nan]])))),  # table non-finite
    ])
    def test_malformed_problem_rejected(self, candidates, unary, edges):
        with pytest.raises(MalformedInputError):
            graphcut.LabelingProblem(candidates=candidates, unary=unary, edges=edges)

    def test_candidates_may_fall_between_vertices(self):
        # only each vertex's own set must ascend
        cands = (np.array([3, 4]), np.array([0, 1, 2]), np.array([0]))
        prob = graphcut.LabelingProblem(candidates=cands,
                                        unary=tuple(np.zeros(c.size) for c in cands))
        assert prob.label_positions.tolist() == [[-1, -1, -1, 0, 1], [0, 1, 2, -1, -1],
                                                 [0, -1, -1, -1, -1]]

    def test_label_position_table(self):
        cands = (np.array([0, 2]), np.array([2, 5]), np.array([5]))
        prob = graphcut.LabelingProblem(candidates=cands,
                                        unary=tuple(np.zeros(c.size) for c in cands))
        assert prob.labels.tolist() == [0, 2, 5]
        assert prob.label_positions.tolist() == [[0, 1, -1], [-1, 0, 1], [-1, -1, 0]]

    def test_wrong_length_labeling_rejected(self):
        prob = potts_problem([(0.0, 1.0), (1.0, 0.0)], 1.0)
        with pytest.raises(MalformedInputError):
            prob.positions(np.array([0]))


class TestAlphaExpansion:
    def test_zero_pairwise_gives_unary_argmin(self):
        prob = potts_problem([(0.0, 2.0), (2.0, 0.0), (0.5, 0.1)], 0.0)
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert res.labeling.tolist() == [0, 1, 1]

    def test_single_vertex(self):
        prob = potts_problem([(3.0, 1.0)], 1.0)
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert res.labeling.tolist() == [1]
        assert res.energy == 1.0

    def test_three_chain_matches_exhaustive(self):
        prob = potts_problem([(0.0, 2.0), (2.0, 0.0), (0.0, 2.0)], 1.0)
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        best, _ = exhaustive_energy(prob)
        assert best == 2.0
        assert res.energy == pytest.approx(best)

    def test_sweep_cap_clears_converged(self):
        # the second sweep still moves (6.0 -> 5.0); only the third is quiet
        prob = potts_problem([(0, 2, 0), (3, 3, 0), (3, 1, 3), (2, 2, 3)], 2.0, n_labels=3)
        full = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert (full.sweeps, full.converged, full.energy) == (3, True, 5.0)
        for cap in (1, 2):
            capped = graphcut.alpha_expansion(prob, max_sweeps=cap)
            assert (capped.sweeps, capped.converged) == (cap, False)
        assert graphcut.alpha_expansion(prob, max_sweeps=1).energy == 6.0

    def test_truncated_terms_counted(self):
        # both vertices start at label 0; expanding label 1 over the edge
        # costs a + d = 0 + 5 > b + c = 0, so its term is truncated once,
        # and the move, worse in true energy, is rejected
        table = np.array([[0.0, 0.0], [0.0, 5.0]])
        cands = (np.array([0, 1]), np.array([0, 1]))
        prob = graphcut.LabelingProblem(candidates=cands, unary=(np.zeros(2), np.zeros(2)),
                                        edges=((0, 1, table),))
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert (res.labeling.tolist(), res.energy, res.sweeps) == ([0, 0], 0.0, 1)
        assert res.truncated_terms == 1
        # Potts terms are metric, so no expansion move truncates them
        potts = potts_problem([(0, 2, 0), (3, 3, 0), (3, 1, 3), (2, 2, 3)], 2.0, n_labels=3)
        assert graphcut.alpha_expansion(potts, MAX_SWEEPS).truncated_terms == 0

    def test_moves_strictly_decrease(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            unaries = [rng.uniform(0, 5, size=3) for _ in range(n)]
            prob = potts_problem(unaries, float(rng.uniform(0, 3)), n_labels=3)
            res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
            me = res.move_energies
            assert all(me[i + 1] < me[i] for i in range(len(me) - 1))

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_never_raises_the_energy(self, data):
        # arbitrary tables, non-submodular ones included
        prob = draw_problem(data)
        initial = [cand[np.argmin(un)] for cand, un in zip(prob.candidates, prob.unary)]
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
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
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert res.labeling[0] in {0, 2}
        assert res.labeling[1] in {1, 2}

    @pytest.mark.parametrize("fixed_first", [True, False])
    def test_one_fixed_end_adds_no_pair_arc(self, fixed_first):
        # vertex "fixed" has no alpha candidate; the edge's cost falls from
        # 20 to 0.1 when the other end moves, and (20 + 0.1) - 20 - 0.1 leaves
        # a rounding residue above 1e-15 that must not become a pair arc
        cands = {"fixed": np.array([0]), "mover": np.array([0, 1])}
        unary = {"fixed": np.array([0.0]), "mover": np.array([0.0, 0.0])}
        order = ["fixed", "mover"] if fixed_first else ["mover", "fixed"]
        table = np.array([[20.0, 0.1]]) if fixed_first else np.array([[20.0], [0.1]])
        prob = graphcut.LabelingProblem(candidates=tuple(cands[k] for k in order),
                                        unary=tuple(unary[k] for k in order),
                                        edges=((0, 1, table),))
        res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
        assert res.labeling.tolist() == ([0, 1] if fixed_first else [1, 0])
        assert res.energy == 0.1

    def test_labeling_outside_candidates_rejected(self):
        prob = potts_problem([(0.0, 1.0)], 0.0)
        with pytest.raises(MalformedInputError):
            graphcut.energy_of(prob, np.array([7]))

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
            res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
            best, _ = exhaustive_energy(prob)
            assert res.energy >= best - 1e-9
            me = res.move_energies
            assert all(me[i + 1] < me[i] for i in range(len(me) - 1))


class TestExpansionMove:
    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_per_edge_reference(self, data):
        # arbitrary tables, non-submodular ones included, from any labeling
        prob = draw_problem(data)
        pos = np.array([data.draw(st.integers(0, c.size - 1)) for c in prob.candidates],
                       dtype=np.int64)
        for col in range(prob.labels.size):
            assert (built_move(graphcut._expansion_move, prob, pos, col)
                    == built_move(reference_expansion_move, prob, pos, col))

    def test_delta_adds_edge_terms_in_edge_order(self):
        # vertex 0 alone can take label 1; it is the first end of edges 0, 2
        # and 4 and the second of edges 1, 3 and 5, which make its move cost
        # ``gains``; adding its first-end terms before its second-end ones
        # gives other bits, as do 708 of the 720 orders of the six terms
        gains = [-1.4e-12, 1.1e-12, 1000.0, 63.0, 3e-10, -1e-16]
        edges = tuple((0, k + 1, np.array([[0.0], [g]])) if k % 2 == 0
                      else (k + 1, 0, np.array([[0.0, g]])) for k, g in enumerate(gains))
        prob = graphcut.LabelingProblem(candidates=(np.array([0, 1]),) + (np.array([0]),) * 6,
                                        unary=(np.zeros(2),) + (np.zeros(1),) * 6,
                                        edges=edges)
        pos = np.zeros(7, dtype=np.int64)
        delta = 0.0
        for g in gains:
            delta += g
        move, networks = built_move(graphcut._expansion_move, prob, pos, 1)
        assert networks == [(3, 1, 2, [1], [0], np.array([delta]).tobytes())]
        assert (move, networks) == built_move(reference_expansion_move, prob, pos, 1)


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
            res = graphcut.alpha_expansion(prob, MAX_SWEEPS)
            assert best <= res.energy + 1e-9
            assert best == pytest.approx(exhaustive_energy(prob)[0])
