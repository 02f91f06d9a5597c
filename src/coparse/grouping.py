"""Per-image superpixel grouping as a multicut with mask incentives.

Edges carry a binary contour dissimilarity d; the objective sums the biased
weight (d - theta) over merged edges and subtracts a reward h for every
propagation mask whose covered superpixels end up in one region. The bias
theta makes contour-free edges favor merging; with the raw weights cutting
everything would always be optimal. One kernel,
``kernels.multicut_objectives``, scores the objective everywhere: the
exhaustive oracle's table of every partition, each rounded LP point of the
solver, and ``objective_of``'s single partition.

The solver runs the cutting-plane LP over edge merge variables. A mask c
over superpixels S earns its reward through z_c <= x_e for each edge e inside
S and, when S induces several components, for one merge variable joining
min(S) to the smallest node of each other component; on integer points that
holds exactly when S lies in one region. Each structure is built once per
instance: one sorted index of the pairs, where cycle and path rows look
their pairs up, and one HiGHS model holding the columns and every row.
Cycle inequalities are separated lazily (short chordless cycles, enumerated
once, first; then every edge whose cut weight exceeds its cheapest detour,
all detours from one ``csgraph.dijkstra`` call per round) and added to that
model; a node's 0/1 fixings are column bounds. Each LP is solved cold, with
the options ``linprog(method="highs")`` sets. Every branch-and-bound node
rounds its LP point by connected components of the merged pairs, scores
that partition as its candidate, and branches while the relaxation stays
fractional (Kappes et al., EMMCVPR 2011). Instances small enough for the
exhaustive oracle are therefore solved to proven optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csgraph

from . import kernels
from .core import (ImageRecord, Partition, PropagationRecord, labels_under_mask, pair_graph,
                   superpixel_adjacency)
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
    return tuple(len({int(assignment[i]) for i in ids}) == 1
                 for ids, _ in instance.mask_constraints)


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
    under = labels_under_mask(image.superpixel_map, mask, x, y, image.id, graph.sizes.size)
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


def _check_edit(status) -> None:
    """Raise ``SolverError`` when HiGHS refused a model edit."""
    if status == highs.HighsStatus.kError:
        raise SolverError("HiGHS refused an edit of the multicut LP")


def _solve_highs(lp, lower: np.ndarray, upper: np.ndarray):
    """Solve the model ``lp`` within column bounds ``lower``/``upper`` from
    scratch, as ``linprog(method="highs")`` would: the last run's solver data
    is cleared first. Returns the model status and, when it is optimal, the
    objective and x."""
    cols = np.arange(lower.size, dtype=np.int32)
    _check_edit(lp.changeColsBounds(lower.size, cols, lower, upper))
    lp.clearSolver()
    lp.run()
    status = lp.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    return status, lp.getInfo().objective_function_value, np.array(lp.getSolution().col_value)


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
        n = instance.node_count
        edge_u, edge_v, edge_w, _, _, mask_h = self._arrays
        edge_pairs = np.stack([np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)], axis=1)
        # mask c over S: z_c <= x of each edge inside S, and of a pair joining
        # min(S) to the smallest node of each other component of the subgraph
        # S induces. Such a pair is never an edge, since an edge inside S
        # joins one component; masks share it, numbered after the edges.
        extra: dict[tuple[int, int], int] = {}
        mask_rows: list[tuple[int, int]] = []     # (c, pair) of each row z_c <= x_pair
        for c, (ids, _) in enumerate(instance.mask_constraints):
            ordered = np.array(sorted(ids), dtype=np.int64)
            local = np.searchsorted(ordered, edge_pairs)
            inside = np.flatnonzero(
                (ordered[np.minimum(local, ordered.size - 1)] == edge_pairs).all(axis=1))
            component = Partition.from_merged_pairs(ordered.size, local[inside],
                                                    np.ones(inside.size, dtype=bool)).assignment
            _, heads = np.unique(component, return_index=True)
            root = int(ordered[0])
            mask_rows += [(c, var) for var in inside.tolist() + [
                extra.setdefault((root, b), edge_w.size + len(extra))
                for b in ordered[heads[1:]].tolist()]]
        # pair p joins _pair_array[p] = (u, v), u < v: the edges in edge
        # order, then the masks' extra pairs
        self._pair_array = np.concatenate(
            [edge_pairs, np.array(list(extra), dtype=np.int64).reshape(-1, 2)])
        self.n_pairs, self.n_masks = len(self._pair_array), len(instance.mask_constraints)
        # _pair_of's index: the keys u * n + v sorted, then n * n, which no
        # pair has, so every lookup lands on an entry
        u, v = self._pair_array.T
        keys = u * n + v
        key_order = np.argsort(keys)
        self._pair_keys = np.append(keys[key_order], n * n)
        self._pair_ids = np.append(key_order, -1)
        cost = np.concatenate([edge_w, np.zeros(self.n_pairs - edge_w.size), -mask_h])
        # one HiGHS model per instance: its columns and the mask rows are
        # added here, each cycle row as separation finds it
        self._lp = highs._Highs()
        self._lp.passOptions(_HIGHS_OPTIONS)
        _check_edit(self._lp.addVars(cost.size, np.zeros(cost.size), np.ones(cost.size)))
        _check_edit(self._lp.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost))
        cols = np.array([(self.n_pairs + c, var) for c, var in mask_rows], dtype=np.int32).ravel()
        _check_edit(self._lp.addRows(len(mask_rows), np.full(len(mask_rows), -np.inf),
                                     np.zeros(len(mask_rows)), cols.size,
                                     np.arange(0, cols.size, 2, dtype=np.int32), cols,
                                     np.tile([1.0, -1.0], len(mask_rows))))
        # search counters; proven_optimal turns false when NODE_CAP stops it
        self.lp_solves = self.nodes = 0
        self.proven_optimal = True
        self._row_keys: set = set()      # one key per cycle row added
        self._triangles, self._quads = self._enumerate_short_cycles()

    def _pair_of(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Index of each pair {a, b}, or -1 where there is none."""
        n = self.instance.node_count
        q = np.minimum(a, b) * n + np.maximum(a, b)
        pos = np.searchsorted(self._pair_keys, q)
        return np.where(self._pair_keys[pos] == q, self._pair_ids[pos], -1)

    def _enumerate_short_cycles(self):
        """Chordless cycles of length 3 and 4 as var-index arrays, found once.

        Each pair (u, v), u < v, is expanded over the arcs out of u (and, for
        quads, then over those out of v), every node's arcs in pair order.
        So triangles (e_uv, e_uw, e_vw), w > v, come in (e_uv, e_uw) order
        and quads (e_uv, e_ua, e_ab, e_vb), whose chords {a, v} and {u, b}
        are not pairs and whose (u, v) is below the sorted (a, b), in
        (e_uv, e_ua, e_vb) order.
        """
        n = self.instance.node_count
        u, v = self._pair_array.T
        arc_src, arc_dst = np.concatenate([u, v]), np.concatenate([v, u])
        pair_ids = np.tile(np.arange(self.n_pairs), 2)
        arc_order = np.lexsort((pair_ids, arc_src))
        arc_node, arc_pair = arc_dst[arc_order], pair_ids[arc_order]
        ptr = np.concatenate([[0], np.cumsum(np.bincount(arc_src, minlength=n))])

        def expand(nodes):
            """(position in ``nodes``, arc) for every arc out of each node, in order."""
            counts = ptr[nodes + 1] - ptr[nodes]
            at = np.repeat(np.arange(nodes.size), counts)
            arc = (np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
                   + ptr[nodes][at])
            return at, arc

        e, arc = expand(u)
        w, e_uw = arc_node[arc], arc_pair[arc]
        e_vw = self._pair_of(v[e], w)
        tri = np.stack([e, e_uw, e_vw], axis=1)[(w > v[e]) & (e_vw >= 0)]

        # the quads' a ranges over the same neighbours w of u
        keep = (w != v[e]) & (e_vw < 0)
        e, a, e_ua = e[keep], w[keep], e_uw[keep]
        at, arc = expand(v[e])
        e, a, e_ua = e[at], a[at], e_ua[at]
        b, e_vb = arc_node[arc], arc_pair[arc]
        e_ab = self._pair_of(a, b)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = ((b != u[e]) & (b != a) & (self._pair_of(u[e], b) < 0) & (e_ab >= 0)
                & ((u[e] < lo) | ((u[e] == lo) & (v[e] < hi))))
        quad = np.stack([e, e_ua, e_ab, e_vb], axis=1)[keep]
        return tri, quad

    # -- LP ------------------------------------------------------------------

    def _solve_lp(self, fixed: dict[int, int]):
        """(objective, x) of the LP with ``fixed`` variables held at their
        0/1 values, or None when those fixings make it infeasible."""
        n_vars = self.n_pairs + self.n_masks
        lower, upper = np.zeros(n_vars), np.ones(n_vars)
        for var, val in fixed.items():
            lower[var] = upper[var] = val
        self.lp_solves += 1
        status, fun, x = _solve_highs(self._lp, lower, upper)
        if status == highs.HighsModelStatus.kInfeasible:
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
        _check_edit(self._lp.addRow(-np.inf, float(len(others) - 1), len(others) + 1,
                                    np.array([chosen] + others, dtype=np.int32),
                                    np.array([-1.0] + [1.0] * len(others))))
        return True

    def _separate(self, x: np.ndarray) -> int:
        return self._separate_short_cycles(x) or self._separate_paths(x)

    def _separate_short_cycles(self, x: np.ndarray) -> int:
        added = 0
        tol = self.SEPARATION_TOL
        for cycles, rhs in ((self._triangles, 1.0), (self._quads, 2.0)):
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
            path = [node]
            while pred[row, node] >= 0:
                node = pred[row, node]
                path.append(node)
            path = np.array(path, dtype=np.int64)
            if self._add_row(int(e_idx), self._pair_of(path[1:], path[:-1]).tolist()):
                added += 1
            if added >= 50:
                break
        return added

    # -- rounding -------------------------------------------------------------

    def _round(self, x: np.ndarray) -> np.ndarray:
        merged = x[:self.n_pairs] >= 0.5
        return Partition.from_merged_pairs(self.instance.node_count, self._pair_array,
                                           merged).assignment

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
            for _ in range(rounds):
                if lp is None or self._separate(lp[1]) == 0:
                    break
                lp = self._solve_lp(fixed)
            if lp is None:
                continue
            obj, x = lp
            cand = self._round(x)
            cand_obj = kernels.multicut_objectives(cand[:, None], *self._arrays)[0]
            if cand_obj < best_obj - 1e-12:
                best_obj, best_assign = cand_obj, cand
            if obj >= best_obj + self.PRUNE_SLACK:
                continue
            frac = np.abs(x[:self.n_pairs] - 0.5)
            branch_var = next((int(i) for i in np.argsort(frac, kind="stable")
                               if frac[i] < 0.5 - self.INTEGRALITY_TOL and int(i) not in fixed),
                              None)
            if branch_var is None:
                continue  # integral and cycle-consistent: node fully solved
            first = int(x[branch_var] >= 0.5)   # the nearer value is explored first
            stack.append({**fixed, branch_var: 1 - first})
            stack.append({**fixed, branch_var: first})
        self.proven_optimal = not stack
        if best_assign is None:
            # x = 0 satisfies every row, so only a failed root LP gets here
            raise SolverError("the multicut's root LP has no solution")
        return best_assign, float(best_obj)


def solve_multicut(instance: MulticutInstance, theta: float) -> MulticutSolution:
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
