import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csgraph

from coparse import grouping, kernels
from coparse.core import Partition, PropagationRecord
from coparse.errors import MalformedInputError, OracleTooLargeError, SolverError

from conftest import make_image


def all_partitions(n):
    """Every set partition of range(n) as canonical assignment tuples."""
    out = []
    for labels in itertools.product(range(n), repeat=n):
        seen = {}
        canon = []
        for l in labels:
            if l not in seen:
                seen[l] = len(seen)
            canon.append(seen[l])
        out.append(tuple(canon))
    return sorted(set(out))


def python_objective(instance, assignment, theta):
    """The biased objective in Python floats: edges, then masks, in order."""
    obj = 0.0
    for u, v, d in instance.edges:
        if assignment[u] == assignment[v]:
            obj += d - theta
    for ids, h in instance.mask_constraints:
        if len({int(assignment[i]) for i in ids}) == 1:
            obj -= h
    return obj


def enumerate_optimum(instance, theta):
    """Independent oracle: scan partitions in python, return best objective."""
    best = np.inf
    for assign in all_partitions(instance.node_count):
        best = min(best, python_objective(instance, assign, theta))
    return best


def draw_instance(data, max_nodes):
    """A hypothesis-drawn instance: any edge subset, up to three masks."""
    n = data.draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple((u, v, d) for (u, v), d in zip(pairs, data.draw(
        st.lists(st.sampled_from([None, 0, 1]), min_size=len(pairs), max_size=len(pairs))))
        if d is not None)
    masks = tuple(data.draw(st.lists(st.tuples(
        st.frozensets(st.integers(0, n - 1), min_size=2), st.floats(0.0, 2.0)),
        max_size=3))) if n > 1 else ()
    return grouping.MulticutInstance(node_count=n, edges=edges, mask_constraints=masks)


class TestInstanceValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(MalformedInputError):
            grouping.MulticutInstance(node_count=3, edges=((0, 1, 0), (1, 0, 1)))

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedInputError):
            grouping.MulticutInstance(node_count=2, edges=((1, 1, 0),))

    def test_negative_reward_rejected(self):
        with pytest.raises(MalformedInputError):
            grouping.MulticutInstance(node_count=2, edges=((0, 1, 0),),
                                      mask_constraints=((frozenset({0, 1}), -0.1),))

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), np.float64("nan")])
    def test_non_finite_reward_rejected(self, h):
        # a NaN reward would drop its mask from the objective silently,
        # and +inf would make the objective -inf
        with pytest.raises(MalformedInputError):
            grouping.MulticutInstance(node_count=3, edges=((0, 1, 0), (1, 2, 0)),
                                      mask_constraints=((frozenset({0, 1, 2}), h),))

    def test_singleton_mask_rejected(self):
        with pytest.raises(MalformedInputError):
            grouping.MulticutInstance(node_count=2, edges=((0, 1, 0),),
                                      mask_constraints=((frozenset({0}), 0.5),))

    def test_theta_range_enforced(self):
        inst = grouping.MulticutInstance(node_count=2, edges=((0, 1, 0),))
        with pytest.raises(MalformedInputError):
            grouping.solve_multicut(inst, 1.5)

    @pytest.mark.parametrize("theta", [float("nan"), 0.0, 1.0, 2.0, -0.5, float("inf")])
    def test_every_scorer_checks_theta(self, theta):
        inst = grouping.MulticutInstance(node_count=3, edges=((0, 1, 0), (1, 2, 1)))
        for call in (lambda: grouping.solve_multicut(inst, theta),
                     lambda: grouping.brute_force_multicut(inst, theta),
                     lambda: grouping.objective_of(inst, np.zeros(3, np.int64), theta)):
            with pytest.raises(MalformedInputError):
                call()

    @pytest.mark.parametrize("assignment", [[0, 0], [0, 1, 0, 1], [[0, 0, 1]], []])
    def test_objective_of_checks_the_assignment_length(self, assignment):
        inst = grouping.MulticutInstance(node_count=3, edges=((0, 1, 0), (1, 2, 1)))
        with pytest.raises(MalformedInputError):
            grouping.objective_of(inst, np.array(assignment, dtype=np.int64), 0.5)


class TestEdgeDissimilarity:
    """The contour dissimilarity d that instance_for_image puts on each edge."""

    def split_image_edges(self, contour):
        spmap = np.zeros((6, 6), dtype=int)
        spmap[:, 3:] = 1
        image = make_image(spmap, contour=contour)
        return grouping.instance_for_image(image, [], grouping.superpixel_graph(image)).edges

    def test_no_contour_gives_zero(self):
        assert self.split_image_edges(np.zeros((6, 6), dtype=bool)) == ((0, 1, 0),)

    def test_contour_on_boundary_gives_one(self):
        contour = np.zeros((6, 6), dtype=bool)
        contour[:, 3] = True
        assert self.split_image_edges(contour) == ((0, 1, 1),)

    def test_interior_contour_ignored(self):
        contour = np.zeros((6, 6), dtype=bool)
        contour[:, 0] = True  # deep inside superpixel 0, far from the boundary
        assert self.split_image_edges(contour) == ((0, 1, 0),)


class TestMaskConsistency:
    def test_whole_image(self, quad_image):
        assert grouping.mask_consistency(grouping.superpixel_graph(quad_image), {0, 1, 2, 3}) == 1.0

    def test_empty(self, quad_image):
        assert grouping.mask_consistency(grouping.superpixel_graph(quad_image), set()) == 0.0

    def test_half(self, quad_image):
        assert grouping.mask_consistency(grouping.superpixel_graph(quad_image), {0, 3}) == 0.5


class TestCoveredSuperpixels:
    def test_half_coverage_threshold(self, quad_image):
        graph = grouping.superpixel_graph(quad_image)
        # mask over the top half covers superpixels 0 and 1 fully
        mask = np.ones((2, 4), dtype=bool)
        assert grouping.covered_superpixels(quad_image, graph, mask, 0, 0) == [0, 1]

    def test_partial_below_half_excluded(self, quad_image):
        graph = grouping.superpixel_graph(quad_image)
        # one row only: covers 50% of superpixels 0 and 1 -> still included
        mask = np.ones((1, 4), dtype=bool)
        assert grouping.covered_superpixels(quad_image, graph, mask, 0, 1) == [0, 1]
        # a single pixel: 25% of superpixel 0 -> excluded
        tiny = np.ones((1, 1), dtype=bool)
        assert grouping.covered_superpixels(quad_image, graph, tiny, 0, 0) == []

    @pytest.mark.parametrize("x, y, shape", [(0, -3, (2, 10)), (-4, 0, (10, 2)),
                                             (0, 9, (2, 10)), (9, 0, (10, 2)),
                                             (0, -1, (12, 10))])
    def test_mask_outside_image_rejected(self, x, y, shape):
        # superpixel i is row i; a slice from a negative start wraps, so a
        # mask at y = -3 used to read rows 7 and 8 and cover superpixels 7, 8
        image = make_image(np.repeat(np.arange(10), 10).reshape(10, 10), image_id="rows")
        mask = np.ones(shape, dtype=bool)
        message = f"rows: a {shape[0]}x{shape[1]} mask placed at x={x}, y={y} leaves the 10x10"
        with pytest.raises(MalformedInputError, match=message):
            grouping.covered_superpixels(image, grouping.superpixel_graph(image), mask, x, y)


class TestSolveMulticut:
    def test_all_merge_with_mask(self):
        inst = grouping.MulticutInstance(
            node_count=3, edges=((0, 1, 0), (1, 2, 0)),
            mask_constraints=((frozenset({0, 1, 2}), 0.4),))
        sol = grouping.solve_multicut(inst, 0.5)
        assert sol.partition.k == 1
        assert sol.mask_active == (True,)
        assert sol.objective == pytest.approx(-1.4)

    def test_triangle_example(self):
        inst = grouping.MulticutInstance(
            node_count=3, edges=((0, 1, 1), (1, 2, 1), (0, 2, 0)))
        sol = grouping.solve_multicut(inst, 0.5)
        assert sol.objective == pytest.approx(-0.5)
        assert sol.objective == pytest.approx(enumerate_optimum(inst, 0.5))
        a = sol.partition.assignment
        assert a[0] == a[2] != a[1]

    def test_path_of_four_with_mask(self):
        inst = grouping.MulticutInstance(
            node_count=4, edges=((0, 1, 0), (1, 2, 1), (2, 3, 0)),
            mask_constraints=((frozenset({0, 1, 2, 3}), 0.3),))
        sol = grouping.solve_multicut(inst, 0.5)
        assert sol.objective == pytest.approx(-1.0)
        assert sol.objective == pytest.approx(enumerate_optimum(inst, 0.5))
        a = sol.partition.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert sol.mask_active == (False,)

    def test_determinism(self):
        inst = grouping.MulticutInstance(
            node_count=5, edges=((0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1), (0, 4, 0)),
            mask_constraints=((frozenset({1, 2, 3}), 0.7),))
        a = grouping.solve_multicut(inst, 0.5)
        b = grouping.solve_multicut(inst, 0.5)
        assert a.partition.equals(b.partition)
        assert a.objective == b.objective

    def test_objective_is_recomputed_from_partition(self):
        inst = grouping.MulticutInstance(
            node_count=4, edges=((0, 1, 1), (1, 2, 0), (2, 3, 1), (0, 3, 0)))
        sol = grouping.solve_multicut(inst, 0.5)
        assert sol.objective == pytest.approx(
            grouping.objective_of(inst, sol.partition.assignment, 0.5), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_edgeless_instance_keeps_every_node_apart(self, n, monkeypatch):
        # no edges and no masks leave the LP without variables
        def no_lp(*args, **kwargs):
            raise AssertionError("an instance without variables reached the LP")

        monkeypatch.setattr(grouping, "_solve_highs", no_lp)
        sol = grouping.solve_multicut(grouping.MulticutInstance(node_count=n, edges=()), 0.5)
        assert sol.partition.assignment.tolist() == list(range(n))
        assert sol.objective == 0.0
        assert sol.mask_active == ()

    def test_single_superpixel_image(self):
        image = make_image(np.zeros((6, 5), dtype=np.int64))
        instance = grouping.instance_for_image(image, [], grouping.superpixel_graph(image))
        sol = grouping.solve_multicut(instance, 0.5)
        assert sol.partition.assignment.tolist() == [0]

    def test_lp_failure_raises_solver_error(self, monkeypatch):
        inst = grouping.MulticutInstance(node_count=3, edges=((0, 1, 1), (1, 2, 0)))
        monkeypatch.setattr(grouping, "_solve_highs",
                            lambda *a: (grouping.highs.HighsModelStatus.kSolveError, None, None))
        with pytest.raises(SolverError, match="kSolveError"):
            grouping.solve_multicut(inst, 0.5)

    @pytest.mark.parametrize("status", ["kInfeasible"])
    def test_root_lp_without_solution_raises_solver_error(self, monkeypatch, status):
        # the LP without fixings is feasible (x = 0), so a root LP reported
        # infeasible leaves no partition to return
        inst = grouping.MulticutInstance(node_count=3, edges=((0, 1, 1), (1, 2, 0)))
        monkeypatch.setattr(grouping, "_solve_highs", lambda *a: (
            getattr(grouping.highs.HighsModelStatus, status), None, None))
        with pytest.raises(SolverError, match="root LP"):
            grouping.solve_multicut(inst, 0.5)


# a branching instance: its root LP stays fractional (3 nodes, 4 LPs)
BRANCHING = grouping.MulticutInstance(
    node_count=4, edges=((0, 1, 1), (0, 2, 0), (0, 3, 1), (1, 2, 0), (1, 3, 1), (2, 3, 0)))


class TestSolverCounters:
    def test_hand_counts(self):
        # a path has no cycle to separate: one node and its LP, whose
        # optimum is integral
        path = grouping.MulticutInstance(node_count=3, edges=((0, 1, 1), (1, 2, 0)))
        sol = grouping.solve_multicut(path, 0.5)
        assert (sol.lp_solves, sol.nodes, sol.cuts, sol.proven_optimal) == (1, 1, 0, True)
        sol = grouping.solve_multicut(grouping.MulticutInstance(node_count=2, edges=()), 0.5)
        assert (sol.lp_solves, sol.nodes, sol.cuts, sol.proven_optimal) == (0, 0, 0, True)
        # the root LP merges the three edges at node 2 and cuts the others:
        # one row for each of the three triangles through node 2; each
        # child closes after one LP
        sol = grouping.solve_multicut(BRANCHING, 0.5)
        assert (sol.lp_solves, sol.nodes, sol.cuts, sol.proven_optimal) == (4, 3, 3, True)

    def test_node_cap_clears_proven_optimal(self, monkeypatch):
        monkeypatch.setattr(grouping._MulticutSolver, "NODE_CAP", 1)
        sol = grouping.solve_multicut(BRANCHING, 0.5)
        assert sol.nodes == 1 and not sol.proven_optimal


def neighbour_dicts(solver):
    """adj[u][v] = index of pair {u, v}, each node's dict filled in
    neighbour order."""
    adj = [{} for _ in range(solver.instance.node_count)]
    for idx, (u, v) in sorted(enumerate(solver._pair_array.tolist()), key=lambda item: item[1]):
        adj[u][v] = adj[v][u] = idx
    return adj


def model_rows(solver):
    """The solver's LP rows A @ x <= rhs as (A in CSR, rhs), read from its
    HiGHS model in whichever format HiGHS holds the matrix; within a row the
    entries come in column order."""
    lp = solver._lp.getLp()
    m = lp.a_matrix_
    shape = (lp.num_row_, lp.num_col_)
    if m.format_ == grouping.highs.MatrixFormat.kRowwise:
        a = sparse.csr_matrix((m.value_, m.index_, m.start_), shape=shape)
    else:
        assert m.format_ == grouping.highs.MatrixFormat.kColwise
        a = sparse.csc_matrix((m.value_, m.index_, m.start_), shape=shape).tocsr()
    a.sort_indices()
    assert np.all(np.isneginf(lp.row_lower_))
    return a, np.array(lp.row_upper_)


def mask_rows(solver):
    """The mask rows z_c <= x_ab of a fresh solver, as (c, (a, b)) in row order.

    Before any separation every row is a mask row: +1 at z_c, -1 at x_ab."""
    a, rhs = model_rows(solver)
    assert (np.diff(a.indptr) == 2).all() and (rhs == 0.0).all()
    cols = a.indices.reshape(-1, 2)
    assert (a.data.reshape(-1, 2) == [-1.0, 1.0]).all() and (cols[:, 1] >= solver.n_pairs).all()
    return [(int(z) - solver.n_pairs, tuple(solver._pair_array[int(x)].tolist()))
            for x, z in cols]


class TestMaskEncoding:
    """A mask adds a row per edge inside it and per extra induced component."""

    def test_path_mask_adds_a_row_per_edge_and_no_pair(self):
        # the mask covers the path 0-1-2-3-4; node 5 closes a cycle outside it
        edges = ((0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 0), (4, 5, 1), (0, 5, 0))
        inst = grouping.MulticutInstance(node_count=6, edges=edges,
                                         mask_constraints=((frozenset(range(5)), 0.5),))
        solver = grouping._MulticutSolver(inst, 0.5)
        assert solver.n_pairs == len(edges)
        assert mask_rows(solver) == [(0, (0, 1)), (0, (1, 2)), (0, (2, 3)), (0, (3, 4))]

    def test_two_components_add_one_pair_between_their_smallest_nodes(self):
        # {1, 2} and {3, 4} meet only through node 5, outside the mask; the
        # second mask's components are joined by the same pair, added once
        edges = ((0, 1, 0), (1, 2, 0), (2, 5, 0), (5, 4, 0), (4, 3, 1))
        inst = grouping.MulticutInstance(node_count=6, edges=edges, mask_constraints=(
            (frozenset({4, 3, 2, 1}), 0.5), (frozenset({1, 3}), 0.2)))
        solver = grouping._MulticutSolver(inst, 0.5)
        assert solver.n_pairs == len(edges) + 1
        assert solver._pair_array[-1].tolist() == [1, 3]
        assert mask_rows(solver) == [(0, (1, 2)), (0, (3, 4)), (0, (1, 3)), (1, (1, 3))]

    def test_clique_mask_keeps_the_row_of_every_pair(self):
        edges = tuple((u, v, (u + v) % 2) for u in range(4) for v in range(u + 1, 4))
        inst = grouping.MulticutInstance(node_count=5, edges=edges + ((3, 4, 0),),
                                         mask_constraints=((frozenset(range(4)), 0.5),))
        solver = grouping._MulticutSolver(inst, 0.5)
        assert solver.n_pairs == len(edges) + 1
        assert mask_rows(solver) == [(0, pair) for pair in itertools.combinations(range(4), 2)]


class TestPairIndex:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_pair_of_finds_every_pair_and_only_pairs(self, data):
        inst = draw_instance(data, 12)
        # edges in any order, each with its endpoints either way round
        order = data.draw(st.permutations(range(len(inst.edges))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        edges = tuple((v, u, d) if flip else (u, v, d)
                      for (u, v, d), flip in zip((inst.edges[i] for i in order), flips))
        inst = grouping.MulticutInstance(node_count=inst.node_count, edges=edges,
                                         mask_constraints=inst.mask_constraints)
        solver = grouping._MulticutSolver(inst, 0.5)
        pairs = [tuple(p) for p in solver._pair_array.tolist()]
        # the edges in edge order, then mask pairs that repeat no pair
        assert pairs[:len(edges)] == [(min(u, v), max(u, v)) for u, v, _ in edges]
        assert all(u < v for u, v in pairs) and len(set(pairs)) == len(pairs)
        n = inst.node_count
        a, b = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        index = {pair: idx for idx, pair in enumerate(pairs)}
        expected = [index.get((min(x, y), max(x, y)), -1) for x, y in zip(a, b)]
        assert solver._pair_of(a, b).tolist() == expected
        assert solver._pair_of(b, a).tolist() == expected


def linprog_reference(solver, fixed):
    """The solver's LP as scipy.optimize.linprog(method="highs") solves it
    with the solver's dual feasibility tolerance."""
    n_vars = solver.n_pairs + solver.n_masks
    bounds = [(0.0, 1.0)] * n_vars
    for var, val in fixed.items():
        bounds[var] = (float(val), float(val))
    a_ub, b_ub = model_rows(solver)
    if not b_ub.size:
        a_ub = b_ub = None
    return linprog(solver._lp.getLp().col_cost_, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                   method="highs", options={"dual_feasibility_tolerance": 1e-9})


class TestHighsLp:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_solve_lp_matches_linprog(self, data):
        inst = draw_instance(data, 8)
        solver = grouping._MulticutSolver(inst, 0.5)
        n_vars = solver.n_pairs + solver.n_masks
        assume(n_vars > 0)
        value = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        # several LPs on one solver, each from the last one's basis, with
        # separation rows added between them, so the model grows and is
        # solved again as in the cutting-plane loop; zero rounds and no
        # masks leave the LP without rows
        for _ in range(data.draw(st.integers(1, 3))):
            # random 0/1 fixings; contradictory ones make the LP infeasible
            fixed = data.draw(st.dictionaries(st.integers(0, n_vars - 1), st.integers(0, 1),
                                              max_size=n_vars))
            got = solver._solve_lp(fixed)
            ref = linprog_reference(solver, fixed)
            assert ref.status in (0, 2)
            if ref.status == 2:
                assert got is None
            else:
                # the LP can have several optimal vertices, so only the
                # values are compared
                assert got is not None and abs(got[0] - ref.fun) <= 1e-9
            x = np.array(data.draw(st.lists(value, min_size=n_vars, max_size=n_vars)))
            solver._separate(x)

    def test_one_model_per_solve(self, monkeypatch):
        # BRANCHING runs 4 LPs over 3 nodes, all on the one model
        models = []
        real = grouping.highs._Highs

        def counted():
            models.append(real())
            return models[-1]

        monkeypatch.setattr(grouping.highs, "_Highs", counted)
        sol = grouping.solve_multicut(BRANCHING, 0.5)
        assert sol.lp_solves == 4 and len(models) == 1
        assert models[0].getNumRow() == sol.cuts

    def test_refused_model_edit_raises_solver_error(self):
        solver = grouping._MulticutSolver(BRANCHING, 0.5)
        with pytest.raises(SolverError, match="refused"):
            solver._add_row(0, [solver.n_pairs + solver.n_masks])   # no such column

    def test_contradictory_fixings_are_infeasible(self):
        # a mask row z <= x_ab: the mask joined while a and b stay apart
        inst = grouping.MulticutInstance(node_count=3, edges=((0, 1, 0), (1, 2, 0)),
                                         mask_constraints=((frozenset({0, 2}), 0.5),))
        solver = grouping._MulticutSolver(inst, 0.5)
        fixed = {solver.n_pairs: 1, int(solver._pair_of(np.array([0]), np.array([2]))[0]): 0}
        assert linprog_reference(solver, fixed).status == 2
        assert solver._solve_lp(fixed) is None


def solve_cold(instance, theta):
    """solve_multicut with every LP solved from scratch: HiGHS's solver data
    is cleared before each run, so no LP starts from another's basis."""
    real = grouping._solve_highs

    def cold(lp, *args):
        lp.clearSolver()
        return real(lp, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouping, "_solve_highs", cold)
        return grouping.solve_multicut(instance, theta)


class TestTieRule:
    """A solve's answer depends on its instance alone. Which of several
    tied optima it returns is left to the caller (``pipeline._group_all``)."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_cold_and_warm_solves_agree(self, data):
        # from another basis the search may round another tied optimum
        inst = draw_instance(data, 8)
        theta = data.draw(st.sampled_from([0.5]) | st.floats(0.05, 0.95))
        warm, cold = grouping.solve_multicut(inst, theta), solve_cold(inst, theta)
        assert warm.proven_optimal and cold.proven_optimal
        oracle = grouping.brute_force_multicut(inst, theta)
        assert abs(warm.objective - oracle.objective) <= 1e-9
        assert abs(cold.objective - oracle.objective) <= 1e-9

    def test_another_solve_first_changes_nothing(self):
        rng = np.random.default_rng(31)
        instances = [random_grid_instance(rng) for _ in range(6)]
        alone = [grouping.solve_multicut(inst, 0.5) for inst in instances]
        for inst, first in zip(instances, alone):
            grouping.solve_multicut(instances[0], 0.5)
            again = grouping.solve_multicut(inst, 0.5)
            assert np.array_equal(again.partition.assignment, first.partition.assignment)
            assert (again.objective, again.lp_solves, again.nodes, again.cuts) == \
                (first.objective, first.lp_solves, first.nodes, first.cuts)

    @pytest.mark.parametrize("gap", [2e-8, 1e-7, 1e-6, 1e-5])
    def test_a_gap_below_the_perturbation_is_still_found(self, gap):
        # merging the contour edge under the mask beats cutting it by gap;
        # at HiGHS's default dual feasibility tolerance of 1e-7 the LP
        # misses the 2e-8 and 1e-7 gaps
        inst = grouping.MulticutInstance(node_count=2, edges=((0, 1, 1),),
                                         mask_constraints=((frozenset({0, 1}), 0.5 + gap),))
        sol = grouping.solve_multicut(inst, 0.5)
        assert sol.partition.assignment.tolist() == [0, 0] and sol.proven_optimal
        assert sol.objective == pytest.approx(-gap, rel=1e-6)


def near_tie_instance(rng, k):
    """A random or grid instance; on two of every three ``k`` its masks'
    rewards are a multiple of 0.5 off by 1e-8 to 1e-5, so that two
    partitions' objectives can differ by that little."""
    inst = random_instance(rng, max_nodes=10) if k % 2 else random_grid_instance(rng)
    if k % 3 == 0:
        return inst
    masks = tuple((ids, 0.5 * int(rng.integers(1, 4))
                   + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -5.0)))
                  for ids, _ in inst.mask_constraints)
    return grouping.MulticutInstance(node_count=inst.node_count, edges=inst.edges,
                                     mask_constraints=masks)


class TestBruteForce:
    def test_single_node(self):
        inst = grouping.MulticutInstance(node_count=1, edges=())
        sol = grouping.brute_force_multicut(inst, 0.5)
        assert sol.partition.k == 1
        assert sol.objective == 0.0

    def test_all_cut_when_every_edge_dissimilar(self):
        edges = tuple((u, v, 1) for u in range(4) for v in range(u + 1, 4))
        inst = grouping.MulticutInstance(node_count=4, edges=edges)
        sol = grouping.brute_force_multicut(inst, 0.5)
        assert sol.partition.k == 4
        assert sol.objective == 0.0

    def test_size_cap(self):
        inst = grouping.MulticutInstance(node_count=11, edges=((0, 1, 0),))
        with pytest.raises(OracleTooLargeError):
            grouping.brute_force_multicut(inst, 0.5)

    def test_matches_exhaustive_python_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = tuple((u, v, int(rng.integers(0, 2)))
                          for u, v in pairs if rng.uniform() < 0.7)
            if not edges:
                continue
            inst = grouping.MulticutInstance(node_count=n, edges=edges)
            sol = grouping.brute_force_multicut(inst, 0.5)
            assert sol.objective == pytest.approx(enumerate_optimum(inst, 0.5), abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_scan_objective_is_objective_of(self, data):
        # the oracle reports the scan's own sum: it must equal a recount, bit for bit
        inst = draw_instance(data, 8)
        theta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        sol = grouping.brute_force_multicut(inst, theta)
        recount = python_objective(inst, sol.partition.assignment, theta)
        assert sol.objective == recount
        assert grouping.objective_of(inst, sol.partition.assignment, theta) == recount

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_solver_objective_is_objective_of(self, data):
        # the solver reports its search's own sum: it must equal a fresh
        # objective_of of the partition it returns, bit for bit
        inst = draw_instance(data, 12)
        theta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        sol = grouping.solve_multicut(inst, theta)
        assert sol.objective == grouping.objective_of(inst, sol.partition.assignment, theta)


def random_instance(rng, max_nodes=10):
    n = int(rng.integers(2, max_nodes + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple((u, v, int(rng.integers(0, 2)))
                  for u, v in pairs if rng.uniform() < 0.6)
    masks = []
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(2, n + 1))
        ids = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
        masks.append((ids, float(rng.uniform(0.0, 1.0))))
    if not edges and not masks:
        edges = ((0, 1, int(rng.integers(0, 2))),)
    return grouping.MulticutInstance(node_count=n, edges=edges,
                                     mask_constraints=tuple(masks))


def draw_grid_instance(data):
    """11 to 25 nodes on a grid with a few chords, up to three masks grown
    along edges with an occasional jump (so a mask may induce several
    components)."""
    rnd = data.draw(st.randoms(use_true_random=False))
    n, width = rnd.randint(11, 25), rnd.randint(3, 5)
    pairs = {(i, i + 1) for i in range(n - 1) if (i + 1) % width} | \
        {(i, i + width) for i in range(n - width)}
    for _ in range(rnd.randint(0, 4)):
        u, v = sorted(rnd.sample(range(n), 2))
        pairs.add((u, v))
    edges = tuple((u, v, int(rnd.random() < 0.4)) for u, v in sorted(pairs))
    neighbours = {i: set() for i in range(n)}
    for u, v in pairs:
        neighbours[u].add(v)
        neighbours[v].add(u)
    masks = []
    for _ in range(rnd.randint(0, 3)):
        mask = {rnd.randrange(n)}
        for _ in range(rnd.randint(1, 7)):
            frontier = sorted(set().union(*(neighbours[i] for i in mask)) - mask)
            if frontier and rnd.random() > 0.15:
                mask.add(rnd.choice(frontier))
            else:
                mask.add(rnd.randrange(n))
        if len(mask) >= 2:
            masks.append((frozenset(mask), rnd.uniform(0.0, 2.0)))
    return (grouping.MulticutInstance(node_count=n, edges=edges, mask_constraints=tuple(masks)),
            rnd.uniform(0.05, 0.95))


class TestSolverOracleAgreement:
    @settings(derandomize=True, deadline=None, max_examples=35)
    @given(st.data())
    def test_larger_instances_match_milp(self, data):
        # beyond the exhaustive oracle's reach: path separation, branching
        # and the masks' component pairs at work
        inst, theta = draw_grid_instance(data)
        sol = grouping.solve_multicut(inst, theta)
        assert sol.proven_optimal
        assert sol.objective == pytest.approx(milp_optimum(inst, theta), abs=1e-9)

    def test_near_ties_match_the_oracle(self):
        # two partitions 1e-8 apart are told apart. A grid beyond the
        # exhaustive oracle's reach is checked against the MILP, whose
        # absolute gap of 1e-6 lets it stop at the worse of the two
        rng = np.random.default_rng(84)
        oracle_checked = 0
        for k in range(120):
            inst = near_tie_instance(rng, k)
            sol = grouping.solve_multicut(inst, 0.5)
            assert sol.proven_optimal
            if inst.node_count <= grouping.ORACLE_MAX_NODES:
                oracle = grouping.brute_force_multicut(inst, 0.5)
                assert abs(sol.objective - oracle.objective) <= 1e-9
                oracle_checked += 1
            else:
                assert sol.objective <= milp_optimum(inst, 0.5) + 1e-9
        assert oracle_checked >= 60

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inst = random_instance(rng)
            sol = grouping.solve_multicut(inst, 0.5)
            oracle = grouping.brute_force_multicut(inst, 0.5)
            assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)

    def test_reward_monotonicity(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst = random_instance(rng, max_nodes=7)
            if not inst.mask_constraints:
                continue
            base = grouping.solve_multicut(inst, 0.5).objective
            ids, h = inst.mask_constraints[0]
            bumped = grouping.MulticutInstance(
                node_count=inst.node_count, edges=inst.edges,
                mask_constraints=((ids, h + 0.5),) + inst.mask_constraints[1:])
            assert grouping.solve_multicut(bumped, 0.5).objective <= base + 1e-9


def milp_optimum(instance, theta):
    """Independent exact optimum for larger instances: a MILP over every pair.

    One 0/1 merge variable per node pair, all 3 C(n, 3) transitivity rows,
    and z_c <= x_ab for every pair of mask c; the optimum's partition is
    rescored with ``python_objective``.
    """
    n = instance.node_count
    pairs = list(itertools.combinations(range(n), 2))
    var = {pair: i for i, pair in enumerate(pairs)}
    n_masks = len(instance.mask_constraints)
    cost = np.zeros(len(pairs) + n_masks)
    for u, v, d in instance.edges:
        cost[var[min(u, v), max(u, v)]] += d - theta
    for c, (_, h) in enumerate(instance.mask_constraints):
        cost[len(pairs) + c] = -h
    rows = []   # (columns, coefficients, right-hand side)
    for i, j, k in itertools.combinations(range(n), 3):
        sides = [var[i, j], var[j, k], var[i, k]]
        for out in range(3):   # two merged sides merge the third
            rows.append((sides, [-1.0 if s == out else 1.0 for s in range(3)], 1.0))
    for c, (ids, _) in enumerate(instance.mask_constraints):
        for pair in itertools.combinations(sorted(ids), 2):
            rows.append(([len(pairs) + c, var[pair]], [1.0, -1.0], 0.0))
    a = sparse.csr_matrix((np.concatenate([v for _, v, _ in rows]),
                           np.concatenate([c for c, _, _ in rows]),
                           np.cumsum([0] + [len(c) for c, _, _ in rows])),
                          shape=(len(rows), cost.size))
    res = milp(cost, integrality=np.ones(cost.size), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, -np.inf, [r for _, _, r in rows]),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0
    merged = np.array([pair for pair, x in zip(pairs, res.x) if x > 0.5],
                      dtype=np.int64).reshape(-1, 2)
    assign = Partition.from_assignment(
        kernels.components(n, merged[:, 0], merged[:, 1])).assignment
    return python_objective(instance, assign, theta)


def random_grid_instance(rng):
    """A 4-connected grid of up to 36 nodes with contour flags, and up to four
    masks over grid blocks, some of them with zero reward."""
    rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    n = rows * cols
    edges = [(i, i + 1, int(rng.integers(0, 2))) for i in range(n) if (i + 1) % cols]
    edges += [(i, i + cols, int(rng.integers(0, 2))) for i in range(n - cols)]
    masks = []
    for _ in range(int(rng.integers(0, 5))):
        r0, c0 = int(rng.integers(0, rows)), int(rng.integers(0, cols))
        ids = frozenset(r * cols + c for r in range(r0, min(r0 + 2, rows))
                        for c in range(c0, min(c0 + 3, cols)))
        if len(ids) >= 2:
            masks.append((ids, float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))))
    order = rng.permutation(len(edges))
    return grouping.MulticutInstance(node_count=n, edges=tuple(edges[i] for i in order),
                                     mask_constraints=tuple(masks))


def short_cycles_reference(solver):
    """Chordless 3- and 4-cycles by walking each node's neighbour dict."""
    adj = neighbour_dicts(solver)
    triangles, quads = [], []
    for e_idx, (u, v) in enumerate(solver._pair_array.tolist()):
        for w, e_uw in adj[u].items():
            if w > v and w in adj[v]:
                triangles.append((e_idx, e_uw, adj[v][w]))
        for a, e_ua in adj[u].items():
            if a == v or a in adj[v]:
                continue
            for b, e_vb in adj[v].items():
                if b == u or b == a or b in adj[u]:
                    continue
                if b in adj[a] and (u, v) < tuple(sorted((a, b))):
                    quads.append((e_idx, e_ua, adj[a][b], e_vb))
    return (np.array(triangles, dtype=np.int64).reshape(-1, 3),
            np.array(quads, dtype=np.int64).reshape(-1, 4))


class TestShortCycles:
    def check(self, inst):
        solver = grouping._MulticutSolver(inst, 0.5)
        triangles, quads = short_cycles_reference(solver)
        assert solver._triangles.dtype == solver._quads.dtype == np.int64
        assert solver._triangles.tolist() == triangles.tolist()
        assert solver._quads.tolist() == quads.tolist()
        return len(triangles), len(quads)

    def test_hand_cases(self):
        square = ((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0))
        # the square once from each of its two pairs below the opposite pair
        assert self.check(grouping.MulticutInstance(4, square)) == (0, 2)
        # the chord 0-2 splits the square into two triangles
        assert self.check(grouping.MulticutInstance(4, square + ((0, 2, 1),))) == (2, 0)
        assert self.check(grouping.MulticutInstance(1, ())) == (0, 0)
        # a mask's merge variable closes cycles too
        assert self.check(grouping.MulticutInstance(
            4, ((0, 1, 0), (1, 2, 0), (2, 3, 0)),
            mask_constraints=((frozenset({0, 3}), 0.5),))) == (0, 2)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_equals_neighbour_walk(self, data):
        inst = draw_instance(data, 12)
        # the edge order sets the pair order, and with it the cycle order
        order = data.draw(st.permutations(range(len(inst.edges))))
        self.check(grouping.MulticutInstance(
            node_count=inst.node_count, edges=tuple(inst.edges[i] for i in order),
            mask_constraints=inst.mask_constraints))

    def test_equals_neighbour_walk_on_grids(self):
        rng = np.random.default_rng(59)
        assert sum(self.check(random_grid_instance(rng))[1] for _ in range(100)) > 0


def _floyd_warshall(n, pairs, y, skip):
    """All-pairs shortest paths over cut weights y, pair ``skip`` removed."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for idx, (u, v) in enumerate(pairs):
        if idx != skip:
            dist[u, v] = dist[v, u] = y[idx]
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


class TestPathSeparation:
    def check_rows(self, instance, x):
        solver = grouping._MulticutSolver(instance, 0.5)
        first = solver._lp.getNumRow()
        added = solver._separate_paths(x)
        a, b = model_rows(solver)
        assert added == b.size - first
        rows = [(a.indices[a.indptr[r]:a.indptr[r + 1]], a.data[a.indptr[r]:a.indptr[r + 1]],
                 b[r]) for r in range(first, b.size)]
        tol = solver.SEPARATION_TOL
        pairs = solver._pair_array
        y = 1.0 - x[:solver.n_pairs]
        detour = {e: _floyd_warshall(instance.node_count, pairs, y, e)[u, v]
                  for e, (u, v) in enumerate(pairs) if y[e] > tol}
        violated = {e for e, d in detour.items() if d < y[e] - tol}
        chosen = set()
        for cols, coefs, rhs in rows:
            assert sorted(coefs.tolist()) == [-1.0] + [1.0] * (coefs.size - 1)
            e, path = int(cols[coefs == -1.0][0]), cols[coefs == 1.0].tolist()
            assert e in violated and e not in path and rhs == len(path) - 1
            # the path's pairs form one simple path between e's endpoints
            degree = np.bincount(pairs[path].ravel(), minlength=instance.node_count)
            ends = set(pairs[e].tolist())
            assert all(degree[node] == (1 if node in ends else 2)
                       for node in np.flatnonzero(degree))
            assert len(path) == np.count_nonzero(degree) - 1 and ends <= set(np.flatnonzero(degree))
            assert x[path].sum() - x[e] > rhs
            assert y[path].sum() == pytest.approx(detour[e], abs=1e-12)
            chosen.add(e)
        # edges are taken in pair order until 50 rows are in
        assert sorted(chosen) == sorted(violated)[:50]
        return added

    def test_detour_of_merged_edges(self):
        # a 5-cycle with one cut edge: its detour has cut weight exactly 0
        inst = grouping.MulticutInstance(
            node_count=5, edges=((0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 4, 0), (0, 4, 0)))
        assert self.check_rows(inst, np.array([0.0, 1.0, 1.0, 1.0, 1.0])) == 1

    def test_matches_floyd_warshall_reference(self):
        rng = np.random.default_rng(41)
        total = 0
        for _ in range(200):
            inst = random_instance(rng, max_nodes=12)
            solver = grouping._MulticutSolver(inst, 0.5)
            n_vars = solver.n_pairs + solver.n_masks
            # integral entries give zero cut weights and exact ties
            x = np.where(rng.uniform(size=n_vars) < 0.4,
                         rng.integers(0, 2, size=n_vars), rng.uniform(size=n_vars))
            total += self.check_rows(inst, x)
        assert total > 200

    def test_row_cap(self):
        rng = np.random.default_rng(43)
        n = 20
        inst = grouping.MulticutInstance(
            node_count=n, edges=tuple((u, v, 0) for u in range(n) for v in range(u + 1, n)))
        assert self.check_rows(inst, rng.uniform(size=len(inst.edges))) == 50


DIJKSTRA = csgraph.dijkstra      # unpatched, for the reference


def arc_graph(node_count, pairs, weights):
    """Directed CSR graph with both arcs u->v and v->u of every (u, v) pair
    and the pair's weight, each node's arcs in head order; stored zeros
    stay, as arcs of length zero."""
    tail = np.concatenate([pairs[:, 0], pairs[:, 1]])
    head = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((head, tail))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=node_count))])
    return sparse.csr_array((np.concatenate([weights, weights])[order], head[order], indptr),
                            shape=(node_count, node_count))


def paths_reference(solver, x):
    """The rows ``_separate_paths`` adds to a fresh solver, found with
    Dijkstra from the source of every candidate edge: each violated
    candidate in candidate order, at most 50, with the distance between its
    endpoints; and the sources searched."""
    tol = solver.SEPARATION_TOL
    y = np.clip(1.0 - x[:solver.n_pairs], 0.0, None)
    candidates = np.flatnonzero(y > tol)
    src, dst = solver._pair_array[candidates].T
    sources = np.unique(src)
    if sources.size == 0:
        return [], 0
    dist = DIJKSTRA(arc_graph(solver.instance.node_count, solver._pair_array, y),
                    indices=sources)
    rows = []
    for e, a, b in zip(candidates.tolist(), src.tolist(), dst.tolist()):
        d = dist[int(np.searchsorted(sources, a)), b]
        if d < y[e] - tol:
            rows.append((e, d))
        if len(rows) == 50:
            break
    return rows, sources.size


def path_from(pairs, path, start):
    """The pairs ``path`` in the order of a simple path from ``start`` that
    uses each once, and the node where it ends."""
    left, node, seen, order = set(path), start, {start}, []
    while left:
        step = [p for p in left if node in pairs[p]]
        assert len(step) == 1
        left.remove(step[0])
        order.append(step[0])
        u, v = pairs[step[0]].tolist()
        node = v if node == u else u
        assert node not in seen
        seen.add(node)
    return order, node


def tied_point(rng, size):
    """A point of 0s, 1s, halves and uniform draws, so cut weights tie."""
    return np.choose(rng.integers(0, 4, size=size),
                     [np.zeros(size), np.ones(size), np.full(size, 0.5), rng.uniform(size=size)])


class TestPathSourceFilter:
    """Shortest paths are searched only from the sources whose edge the cheap
    pairs can close, and the rows added are those of a search from every
    candidate's source: the same edges, each closed by a path as long as
    ``csgraph.dijkstra``'s, bit for bit. Which shortest path closes it may
    differ, since zero cut weights tie many."""

    def count_searches(self, monkeypatch):
        searched = []
        search = grouping._dijkstra

        def counting(out, source):
            searched.append(source)
            return search(out, source)
        monkeypatch.setattr(grouping, "_dijkstra", counting)
        return searched

    def test_rows_match_search_from_every_source(self, monkeypatch):
        searched = self.count_searches(monkeypatch)
        rng = np.random.default_rng(71)
        total_rows = reference_sources = 0
        for k in range(300):
            inst = (random_instance(rng, max_nodes=12) if k % 2
                    else random_grid_instance(rng))
            solver = grouping._MulticutSolver(inst, 0.5)
            n_vars = solver.n_pairs + solver.n_masks
            x = tied_point(rng, n_vars) if k % 3 else np.where(
                rng.uniform(size=n_vars) < 0.4, rng.integers(0, 2, size=n_vars),
                rng.uniform(size=n_vars))
            reference, sources = paths_reference(grouping._MulticutSolver(inst, 0.5), x)
            first = solver._lp.getNumRow()
            added = solver._separate_paths(x)
            a, rhs = model_rows(solver)
            assert added == rhs.size - first == len(reference)
            y = np.clip(1.0 - x[:solver.n_pairs], 0.0, None)
            for r, (e, dist) in zip(range(first, rhs.size), reference):
                coef = dict(zip(a.indices[a.indptr[r]:a.indptr[r + 1]].tolist(),
                                a.data[a.indptr[r]:a.indptr[r + 1]].tolist()))
                # the row x_e >= sum(path) - (len(path) - 1) of the edge
                # the reference takes here
                assert coef.pop(e) == -1.0
                assert set(coef.values()) == {1.0} and rhs[r] == len(coef) - 1
                u, v = solver._pair_array[e].tolist()
                order, end = path_from(solver._pair_array, list(coef), u)
                assert end == v
                length = 0.0
                for pair in order:
                    length += y[pair]
                assert length == dist
            total_rows += added
            reference_sources += sources
        assert total_rows > 300
        assert len(searched) < reference_sources

    def test_no_search_at_a_cycle_consistent_integral_point(self, monkeypatch):
        searched = self.count_searches(monkeypatch)
        rng = np.random.default_rng(72)
        for k in range(100):
            inst = random_instance(rng, max_nodes=12) if k % 2 else random_grid_instance(rng)
            solver = grouping._MulticutSolver(inst, 0.5)
            blocks = rng.integers(0, int(rng.integers(1, 5)), size=inst.node_count)
            u, v = solver._pair_array.T
            x = np.concatenate([(blocks[u] == blocks[v]).astype(float),
                                rng.integers(0, 2, size=solver.n_masks)])
            assert solver._separate_paths(x) == 0
        assert searched == []
        # the 5-cycle with one cut edge is not cycle-consistent: it searches
        inst = grouping.MulticutInstance(
            node_count=5, edges=((0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 4, 0), (0, 4, 0)))
        assert grouping._MulticutSolver(inst, 0.5)._separate_paths(
            np.array([0.0, 1.0, 1.0, 1.0, 1.0])) == 1
        assert len(searched) == 1


class TestInstanceForImage:
    def test_assembles_edges_and_masks(self, quad_image):
        prop = PropagationRecord(source_exemplar="e", target_image=quad_image.id,
                                 x=0, y=0, mask=np.ones((2, 4), dtype=bool), score=0.9)
        inst = grouping.instance_for_image(quad_image, [prop],
                                           grouping.superpixel_graph(quad_image))
        assert inst.node_count == 4
        assert len(inst.edges) == 4
        assert inst.mask_constraints == ((frozenset({0, 1}), 0.5),)
