"""Per-image superpixel grouping as a multicut with mask incentives.

Edges carry a binary contour dissimilarity d; the objective sums the biased
weight (d - theta) over merged edges and subtracts a reward h for every
propagation mask whose covered superpixels end up in one region. The bias
theta makes contour-free edges favor merging; with the raw weights cutting
everything would always be optimal. One kernel,
``kernels.multicut_objectives``, scores the objective everywhere: the
exhaustive oracle's table of every partition, each round of the solver's
local search as a table of trials, and ``objective_of``'s single partition.

The solver runs the cutting-plane LP over edge merge variables. A mask c
over superpixels S earns its reward through z_c <= x_e for each edge e inside
S and, when S induces several components, for one merge variable joining
min(S) to the smallest node of each other component; on integer points that
holds exactly when S lies in one region. Cycle inequalities are separated
lazily (short chordless cycles first, then every edge whose cut weight
exceeds its cheapest detour, all detours from one ``csgraph.dijkstra`` call
per round). Each LP is solved cold on scipy's bundled HiGHS with the options
``linprog(method="highs")`` sets; the solver rounds by connected components,
polishes with local merge/move search and, when the relaxation stays
fractional, closes the gap by branching. Instances small enough for the
exhaustive oracle are therefore solved to proven optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csgraph

from . import kernels
from .core import ImageRecord, Partition, PropagationRecord, pair_graph, superpixel_adjacency
from .errors import MalformedInputError, OracleTooLargeError, SolverError

ORACLE_MAX_NODES = 10


@dataclass(frozen=True)
class MulticutInstance:
    node_count: int
    edges: tuple[tuple[int, int, int], ...]                  # (u, v, d) with d in {0, 1}
    mask_constraints: tuple[tuple[frozenset[int], float], ...] = ()

    def __post_init__(self):
        if self.node_count < 1:
            raise MalformedInputError("instance needs at least one node")
        seen = set()
        for u, v, d in self.edges:
            if u == v or not (0 <= u < self.node_count) or not (0 <= v < self.node_count):
                raise MalformedInputError(f"bad edge ({u}, {v})")
            if d not in (0, 1):
                raise MalformedInputError(f"edge dissimilarity must be 0/1, got {d}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MalformedInputError(f"duplicate edge {key}")
            seen.add(key)
        for ids, h in self.mask_constraints:
            if len(ids) < 2:
                raise MalformedInputError("mask constraint needs >= 2 superpixels")
            if h < 0:
                raise MalformedInputError("mask reward must be non-negative")
            for i in ids:
                if not 0 <= i < self.node_count:
                    raise MalformedInputError(f"mask id {i} out of range")

    def arrays(self, theta: float):
        """The objective's terms as ``kernels.multicut_objectives`` takes them:
        edge endpoints and weights d - theta in edge order, then each mask's
        sorted superpixels (``mask_ids[mask_ptr[c]:mask_ptr[c + 1]]``) and
        reward in mask order."""
        edge_u = np.array([u for u, _, _ in self.edges], dtype=np.int64)
        edge_v = np.array([v for _, v, _ in self.edges], dtype=np.int64)
        edge_w = np.array([d - theta for _, _, d in self.edges], dtype=np.float64)
        mask_ids = np.array([i for ids, _ in self.mask_constraints for i in sorted(ids)],
                            dtype=np.int64)
        mask_ptr = np.cumsum([0] + [len(ids) for ids, _ in self.mask_constraints])
        mask_h = np.array([h for _, h in self.mask_constraints], dtype=np.float64)
        return edge_u, edge_v, edge_w, mask_ptr, mask_ids, mask_h


@dataclass(frozen=True)
class MulticutSolution:
    partition: Partition
    objective: float
    mask_active: tuple[bool, ...]
    lp_solves: int = 0                 # LPs the cutting-plane solver ran
    nodes: int = 0                     # branch-and-bound nodes it explored
    cuts: int = 0                      # cycle rows separation added to the LP
    proven_optimal: bool = True        # false when NODE_CAP left nodes unexplored


def objective_of(instance: MulticutInstance, assignment: np.ndarray, theta: float) -> float:
    """Biased objective of a concrete partition, recomputed from scratch."""
    column = np.asarray(assignment)[:, None]
    return float(kernels.multicut_objectives(column, *instance.arrays(theta))[0])


def _mask_active(instance: MulticutInstance, assignment: np.ndarray) -> tuple[bool, ...]:
    out = []
    for ids, _ in instance.mask_constraints:
        vals = {int(assignment[i]) for i in ids}
        out.append(len(vals) == 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# Mask coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperpixelGraph:
    """The parts of a grouping instance that depend on the image alone."""

    edges: tuple[tuple[int, int, int], ...]   # (u, v, d): 4-adjacent pairs, contour flag d
    sizes: np.ndarray                         # (M,) pixels per superpixel


def superpixel_graph(image: ImageRecord) -> SuperpixelGraph:
    """Contour-flagged superpixel adjacency and superpixel sizes of an image."""
    pairs, dflags = superpixel_adjacency(image.superpixel_map, image.contour_map)
    spmap = image.superpixel_map
    return SuperpixelGraph(
        edges=tuple((int(u), int(v), int(d)) for (u, v), d in zip(pairs, dflags)),
        sizes=np.bincount(spmap.ravel(), minlength=int(spmap.max()) + 1))


def covered_superpixels(image: ImageRecord, graph: SuperpixelGraph, mask: np.ndarray,
                        x: int, y: int) -> list[int]:
    """Superpixels with at least half their pixels under the placed mask;
    ``graph`` is the image's ``superpixel_graph``."""
    mh, mw = mask.shape
    window = image.superpixel_map[y:y + mh, x:x + mw]
    if window.shape != (mh, mw):
        raise MalformedInputError("mask placed outside image bounds")
    under = np.bincount(window[np.asarray(mask, dtype=bool)], minlength=graph.sizes.size)
    return [int(i) for i in np.flatnonzero(2 * under >= graph.sizes)]


def mask_consistency(graph: SuperpixelGraph, covered: set[int] | list[int]) -> float:
    """Normalized total area of the covered superpixels."""
    ids = sorted(set(int(i) for i in covered))
    if not ids:
        return 0.0
    return float(sum(graph.sizes[i] for i in ids)) / int(graph.sizes.sum())


def instance_for_image(image: ImageRecord, propagations: list[PropagationRecord],
                       graph: SuperpixelGraph) -> MulticutInstance:
    """Assemble the per-image grouping instance from contours and masks;
    ``graph`` is the image's ``superpixel_graph``."""
    masks = []
    for prop in propagations:
        covered = covered_superpixels(image, graph, prop.mask, prop.x, prop.y)
        if len(covered) >= 2:
            masks.append((frozenset(covered), mask_consistency(graph, covered)))
    return MulticutInstance(node_count=graph.sizes.size, edges=graph.edges,
                            mask_constraints=tuple(masks))


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force_multicut(instance: MulticutInstance, theta: float) -> MulticutSolution:
    """Exact optimum by scanning every set partition (node_count <= 10)."""
    n = instance.node_count
    if n > ORACLE_MAX_NODES:
        raise OracleTooLargeError(f"{n} nodes exceeds the oracle cap of {ORACLE_MAX_NODES}")
    table = kernels.rgs_table(n)
    obj = kernels.multicut_objectives(table, *instance.arrays(theta))
    best = int(np.argmin(obj))  # the first partition attaining the minimum
    partition = Partition.from_assignment(table[:, best])
    return MulticutSolution(
        partition=partition,
        objective=float(obj[best]),
        mask_active=_mask_active(instance, partition.assignment))


# ---------------------------------------------------------------------------
# Cutting-plane solver with branch-and-cut closure
# ---------------------------------------------------------------------------

# linprog(method="highs")'s settings: presolve on, dual simplex, no output
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone


def _solve_highs(cost: np.ndarray, a: sparse.csc_matrix, rhs: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray):
    """min cost @ x s.t. a @ x <= rhs, lower <= x <= upper, by one cold HiGHS
    solve on the model ``linprog(method="highs")`` builds.

    Returns the model status and, when it is optimal, the objective and x.
    """
    n_rows, n_cols = a.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr.tolist()
    lp.a_matrix_.index_ = a.indices.tolist()
    lp.a_matrix_.value_ = a.data.tolist()
    lp.col_cost_ = cost
    lp.col_lower_ = lower.tolist()
    lp.col_upper_ = upper.tolist()
    lp.row_lower_ = [-np.inf] * n_rows
    lp.row_upper_ = rhs.tolist()
    solver = highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, None
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    return (status, solver.getInfo().objective_function_value,
            np.array(solver.getSolution().col_value))


class _MulticutSolver:
    INTEGRALITY_TOL = 1e-6
    SEPARATION_TOL = 1e-7
    PRUNE_SLACK = 1e-8
    NODE_CAP = 500
    ROOT_ROUNDS = 50
    CHILD_ROUNDS = 10

    def __init__(self, instance: MulticutInstance, theta: float):
        self.instance = instance
        self._arrays = instance.arrays(theta)
        # adj[u][v] is the variable of pair {u, v}; filled in pair order
        self.adj: list[dict[int, int]] = [{} for _ in range(instance.node_count)]
        self.pairs: list[tuple[int, int]] = []
        for u, v, _ in instance.edges:
            self._add_pair(min(u, v), max(u, v))
        # mask c over S: z_c <= x of each edge inside S, and of a pair joining
        # min(S) to the smallest node of each other component of the subgraph
        # S induces, added as a variable unless it is one already
        edge_pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        mask_vars: list[list[int]] = []
        for ids, _ in instance.mask_constraints:
            ordered = np.array(sorted(ids), dtype=np.int64)
            local = np.searchsorted(ordered, edge_pairs)
            inside = np.flatnonzero(
                (ordered[np.minimum(local, ordered.size - 1)] == edge_pairs).all(axis=1))
            component = Partition.from_edge_labels(ordered.size, local[inside],
                                                   np.ones(inside.size, dtype=bool)).assignment
            _, heads = np.unique(component, return_index=True)
            root, others = int(ordered[0]), ordered[heads[1:]].tolist()
            for b in others:
                if b not in self.adj[root]:
                    self._add_pair(root, b)
            mask_vars.append(inside.tolist() + [self.adj[root][b] for b in others])
        self.n_pairs = len(self.pairs)
        self._pair_array = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.n_masks = len(instance.mask_constraints)
        _, _, edge_w, _, _, mask_h = self._arrays
        self.cost = np.concatenate([edge_w, np.zeros(self.n_pairs - edge_w.size), -mask_h])

        # LP rows as growing COO lists: A_ub[row_of[k], col_of[k]] = coef[k];
        # _rows() mirrors them as arrays, converting only the rows added since
        # its last call
        self.row_of: list[int] = []
        self.col_of: list[int] = []
        self.coef: list[float] = []
        self.rhs: list[float] = []
        self._row_arrays = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                            np.empty(0), np.empty(0))
        # search counters; proven_optimal turns false when NODE_CAP stops it
        self.lp_solves = self.nodes = 0
        self.proven_optimal = True
        self._row_keys: set = set()      # one key per cycle row added
        for ci, variables in enumerate(mask_vars):
            for var in variables:
                self._append_row([self.n_pairs + ci, var], [1.0, -1.0], 0.0)
        self._triangles, self._quads = self._enumerate_short_cycles()

    def _add_pair(self, u: int, v: int) -> None:
        self.adj[u][v] = self.adj[v][u] = len(self.pairs)
        self.pairs.append((u, v))

    def _enumerate_short_cycles(self):
        """Chordless cycles of length 3 and 4 as var-index arrays, found once."""
        adj = self.adj
        triangles = []
        quads = []
        for e_idx, (u, v) in enumerate(self.pairs):
            for w, e_uw in adj[u].items():
                if w == v or w < v:
                    continue
                e_vw = adj[v].get(w)
                if e_vw is not None:
                    triangles.append((e_idx, e_uw, e_vw))
            for a, e_ua in adj[u].items():
                if a == v or a in adj[v]:
                    continue
                for b, e_vb in adj[v].items():
                    if b == u or b == a or b in adj[u]:
                        continue
                    e_ab = adj[a].get(b)
                    if e_ab is not None and (u, v) < tuple(sorted((a, b))):
                        quads.append((e_idx, e_ua, e_ab, e_vb))
        tri = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        quad = np.array(quads, dtype=np.int64).reshape(-1, 4)
        return tri, quad

    # -- LP ------------------------------------------------------------------

    def _append_row(self, cols: list[int], coefs: list[float], rhs: float) -> None:
        self.row_of.extend([len(self.rhs)] * len(cols))
        self.col_of.extend(cols)
        self.coef.extend(coefs)
        self.rhs.append(rhs)

    def _rows(self):
        """The LP rows as arrays (row, col, coef, rhs); only the rows appended
        since the last call are converted."""
        row, col, coef, rhs = self._row_arrays
        if rhs.size < len(self.rhs):
            nnz = row.size
            self._row_arrays = row, col, coef, rhs = (
                np.concatenate([row, np.array(self.row_of[nnz:], dtype=np.int64)]),
                np.concatenate([col, np.array(self.col_of[nnz:], dtype=np.int64)]),
                np.concatenate([coef, np.array(self.coef[nnz:], dtype=np.float64)]),
                np.concatenate([rhs, np.array(self.rhs[rhs.size:], dtype=np.float64)]))
        return row, col, coef, rhs

    def _solve_lp(self, fixed: dict[int, int]):
        """(objective, x) of the LP with ``fixed`` variables held at their
        0/1 values, or None when those fixings make it infeasible."""
        n_vars = self.n_pairs + self.n_masks
        lower, upper = np.zeros(n_vars), np.ones(n_vars)
        for var, val in fixed.items():
            lower[var] = upper[var] = val
        row, col, coef, rhs = self._rows()
        a_ub = sparse.csr_matrix((coef, (row, col)), shape=(rhs.size, n_vars)).tocsc()
        self.lp_solves += 1
        status, fun, x = _solve_highs(self.cost, a_ub, rhs, lower, upper)
        # linprog reports a model HiGHS refuses to load as infeasible, too
        if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError):
            return None
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverError(f"LP solver failed with HiGHS model status {status.name}")
        return fun, x

    # -- separation ----------------------------------------------------------

    def _add_row(self, chosen: int, others: list[int]) -> bool:
        """Cycle row x_chosen >= sum(others) - (len(others) - 1), once per cycle."""
        key = (chosen, frozenset(others))
        if key in self._row_keys:
            return False
        self._row_keys.add(key)
        self._append_row([chosen] + others, [-1.0] + [1.0] * len(others),
                         float(len(others) - 1))
        return True

    def _separate(self, x: np.ndarray) -> int:
        added = self._separate_short_cycles(x)
        if added:
            return added
        return self._separate_paths(x)

    def _separate_short_cycles(self, x: np.ndarray) -> int:
        added = 0
        tol = self.SEPARATION_TOL
        for cycles, rhs in ((self._triangles, 1.0), (self._quads, 2.0)):
            if cycles.size == 0:
                continue
            vals = x[cycles]
            totals = vals.sum(axis=1)
            # chosen edge e violates when sum(others) - x_e > len - 2
            viol = totals[:, None] - 2.0 * vals > rhs + tol
            for row, col in zip(*np.nonzero(viol)):
                chosen = int(cycles[row, col])
                others = [int(c) for j, c in enumerate(cycles[row]) if j != col]
                if self._add_row(chosen, others):
                    added += 1
        return added

    def _separate_paths(self, x: np.ndarray) -> int:
        """Shortest-cycle separation: cut weight of an edge vs. the cheapest
        detour in cut weights y = 1 - x.

        Any path that uses edge e costs at least y_e, so dist(u, v) < y_e
        means the shortest u-v path avoids e and closes a violated cycle
        with it. One Dijkstra call serves every candidate edge's source.
        """
        added = 0
        tol = self.SEPARATION_TOL
        y = np.clip(1.0 - x[:self.n_pairs], 0.0, None)
        candidates = np.flatnonzero(y > tol)
        src, dst = self._pair_array[candidates].T
        sources = np.unique(src)
        dist, pred = csgraph.dijkstra(pair_graph(self.instance.node_count, self._pair_array, y),
                                      indices=sources, return_predecessors=True)
        rows = np.searchsorted(sources, src)
        violated = dist[rows, dst] < y[candidates] - tol
        for e_idx, row, node in zip(candidates[violated], rows[violated], dst[violated]):
            path_vars = []
            while pred[row, node] >= 0:
                prev = pred[row, node]
                path_vars.append(self.adj[prev][node])
                node = prev
            if self._add_row(int(e_idx), path_vars):
                added += 1
            if added >= 50:
                break
        return added

    # -- rounding + local search ---------------------------------------------

    def _round(self, x: np.ndarray) -> np.ndarray:
        merged = x[:self.n_pairs] >= 0.5
        return Partition.from_edge_labels(self.instance.node_count, self._pair_array,
                                          merged).assignment

    def _local_improve(self, assign: np.ndarray) -> tuple[np.ndarray, float]:
        """Merge and move search from ``assign``; returns it improved and its
        objective.

        Each round scores its trials as int32 tables of assignments. It takes
        the best merge of two touching regions if that lowers the objective,
        else the first move of one node that does: nodes ascending, each to
        its touching regions in sorted order, then to a fresh region.
        Touching means joined by an edge or a mask's merge variable.
        """
        pairs = self._pair_array
        best = kernels.multicut_objectives(assign[:, None], *self._arrays)[0]
        for _ in range(100):
            column = assign.astype(np.int32)[:, None]
            base = int(assign.max()) + 1
            # merge region b into region a for every touching a < b
            lo, hi = np.sort(assign[pairs], axis=1).T
            a, b = np.divmod(np.unique((lo * base + hi)[lo != hi]), base)
            trials = np.where(column == b.astype(np.int32), a.astype(np.int32), column)
            objs = kernels.multicut_objectives(trials, *self._arrays)
            delta = objs - best
            if delta.size and delta.min() < -1e-12:
                k = int(np.argmin(delta))
                assign, best = Partition.from_assignment(trials[:, k]).assignment, objs[k]
                continue
            # move node to region r, every r != assign[node] it touches, plus base
            ends = np.concatenate([pairs, pairs[:, ::-1]])
            region = assign[ends[:, 1]]
            away = region != assign[ends[:, 0]]
            node, target = np.divmod(np.unique(np.concatenate([
                ends[away, 0] * (base + 1) + region[away],
                np.arange(assign.size) * (base + 1) + base])), base + 1)
            trials = np.repeat(column, node.size, axis=1)
            trials[node, np.arange(node.size)] = target
            objs = kernels.multicut_objectives(trials, *self._arrays)
            better = np.flatnonzero(objs < best - 1e-12)
            if better.size == 0:
                break
            k = int(better[0])
            assign, best = Partition.from_assignment(trials[:, k]).assignment, objs[k]
        return assign, float(best)

    # -- branch and cut --------------------------------------------------------

    def solve(self) -> tuple[np.ndarray, float]:
        if self.n_pairs + self.n_masks == 0:
            # no edges and no masks: the LP has no variables, and rounding
            # by connected components leaves every node on its own
            return np.arange(self.instance.node_count, dtype=np.int64), 0.0
        best_assign: np.ndarray | None = None
        best_obj = np.inf
        stack: list[dict[int, int]] = [{}]
        while stack and self.nodes < self.NODE_CAP:
            fixed = stack.pop()
            self.nodes += 1
            rounds = self.ROOT_ROUNDS if self.nodes == 1 else self.CHILD_ROUNDS
            lp = self._solve_lp(fixed)
            if lp is None:
                continue
            obj, x = lp
            for _ in range(rounds):
                if self._separate(x) == 0:
                    break
                lp = self._solve_lp(fixed)
                if lp is None:
                    break
                obj, x = lp
            if lp is None:
                continue
            cand, cand_obj = self._local_improve(self._round(x))
            if cand_obj < best_obj - 1e-12:
                best_obj, best_assign = cand_obj, cand
            if obj >= best_obj + self.PRUNE_SLACK:
                continue
            frac = np.abs(x[:self.n_pairs] - 0.5)
            order = np.argsort(frac, kind="stable")
            branch_var = None
            for idx in order:
                if frac[idx] < 0.5 - self.INTEGRALITY_TOL and int(idx) not in fixed:
                    branch_var = int(idx)
                    break
            if branch_var is None:
                continue  # integral and cycle-consistent: node fully solved
            hi_first = x[branch_var] >= 0.5
            first, second = (1, 0) if hi_first else (0, 1)
            stack.append({**fixed, branch_var: second})
            stack.append({**fixed, branch_var: first})
        self.proven_optimal = not stack
        if best_assign is None:
            best_assign, best_obj = self._local_improve(
                np.zeros(self.instance.node_count, dtype=np.int64))
        return best_assign, best_obj


def solve_multicut(instance: MulticutInstance, theta: float = 0.5) -> MulticutSolution:
    """Minimize the biased grouping objective over partition-consistent labelings."""
    if not 0.0 < theta < 1.0:
        raise MalformedInputError(f"merge bias theta must lie in (0, 1), got {theta}")
    if not isinstance(instance, MulticutInstance):
        raise MalformedInputError("expected a MulticutInstance")
    solver = _MulticutSolver(instance, theta)
    assign, objective = solver.solve()
    partition = Partition.from_assignment(assign)
    return MulticutSolution(
        partition=partition,
        objective=objective,
        mask_active=_mask_active(instance, partition.assignment),
        lp_solves=solver.lp_solves, nodes=solver.nodes, cuts=len(solver._row_keys),
        proven_optimal=solver.proven_optimal)
