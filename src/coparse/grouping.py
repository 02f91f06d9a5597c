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
instance: one arc index, both arcs of every pair sorted by (tail, head),
and one HiGHS model holding the columns and every row. The short cycles
are enumerated over the arc index and their rows look their pairs up in
its sorted keys, so no round sorts anything. Cycle inequalities are
separated lazily (short chordless cycles, enumerated once, first; then
every edge whose cut weight exceeds its cheapest detour) and added to that
model; a node's 0/1 fixings are column bounds. The detours are searched
only from the candidate edges whose endpoints the pairs cheaper than the
largest candidate cut weight join (``kernels.components``), so a round at
a cycle-consistent integral point searches nothing, and on the graph that
the pairs of cut weight zero contract: a binary-heap Dijkstra over its few
arcs, each path expanded inside a contracted component along the arc
index's zero pairs. Each LP starts from the last one's basis, with the
options ``linprog(method="highs")`` sets and a tighter dual feasibility
tolerance. Every branch-and-bound node rounds its LP point to the connected
components of the merged pairs (``kernels.components`` again, with no
sparse matrix), scores that partition as its candidate, and branches while
the relaxation stays fractional (Kappes et al., EMMCVPR 2011).

Every LP is solved at the true costs. A node whose LP optimum is integral
is exact: its LP value is the objective of its rounded partition, so it
closes. Of several tied optima the search keeps the first it rounds; which
one that is depends on the rows separation added, so ties between optima
are left to the caller: Phase I keeps an image's previous partition when
the new optimum ties it (``pipeline._group_all``). Instances small enough
for the exhaustive oracle are solved to proven optimality.

A solve can start from the cycle rows of an earlier solve over the same
graph: ``MulticutSolution.rows`` gives every row its LP ended with as node
pairs, and ``solve_multicut(instance, theta, rows)`` adds them to the model
before the first LP. A cycle row holds at every multicut of the graph, so
the optimum's value cannot move; only which of tied optima the search
rounds first can, and that is the caller's to settle. A row over a pair the
new instance lacks, one of an earlier mask's extra pairs, is dropped.

The model is scipy's bundled HiGHS binding, the extension module
``scipy.optimize._highspy._core``, loaded straight from its file: importing
it through the ``scipy.optimize`` package would also load linprog,
minimize, shgo and the rest of that package, none of which runs here. The
module is registered under its own name, so a later ``import scipy.optimize``
reuses it, and one already imported is reused here.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .core import (ImageRecord, Partition, PropagationRecord, labels_under_mask,
                   superpixel_adjacency)
from .errors import MalformedInputError, OracleTooLargeError, SolverError

ORACLE_MAX_NODES = 10


def _load_highs():
    """scipy's HiGHS extension module, loaded from its file and registered
    under its own name, or the module already registered there. The file is
    found from scipy's import spec, which does not import scipy."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("no module named 'scipy', whose HiGHS extension coparse loads")
    folder = Path(package.origin).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no HiGHS extension module _core in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()


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
            if not 0.0 <= h < np.inf:
                raise MalformedInputError(f"mask reward must be finite and >= 0, got {h}")
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
    rows_reused: int = 0               # seeded cycle rows the LP took
    # every cycle row of the LP, seeded or separated, in the order added, as
    # node pairs ((u, v), ((u, v), ...)): the chosen pair, then the others
    rows: tuple = ()


def _check_theta(theta: float) -> None:
    """Raise ``MalformedInputError`` unless the merge bias lies in (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise MalformedInputError(f"merge bias theta must lie in (0, 1), got {theta}")


def objective_of(instance: MulticutInstance, assignment: np.ndarray, theta: float) -> float:
    """Biased objective of a concrete partition, recomputed from scratch."""
    _check_theta(theta)
    assignment = np.asarray(assignment)
    if assignment.shape != (instance.node_count,):
        raise MalformedInputError(f"assignment of shape {assignment.shape} for "
                                  f"{instance.node_count} nodes")
    return float(kernels.multicut_objectives(assignment[:, None], *instance.arrays(theta))[0])


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
    _check_theta(theta)
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

# linprog(method="highs")'s settings (presolve on, dual simplex, no output),
# with a dual feasibility tolerance below HiGHS's default 1e-7, at which a
# mask reward 2e-8 or 1e-7 above its cut's cost is not found to pay
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-9
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone


def _check_edit(status) -> None:
    """Raise ``SolverError`` when HiGHS refused a model edit."""
    if status == highs.HighsStatus.kError:
        raise SolverError("HiGHS refused an edit of the multicut LP")


def _solve_highs(lp, cols: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Set the bounds of columns ``cols`` to ``lower``/``upper`` and solve
    the model ``lp`` from the basis of its last run. Returns the model
    status and, when it is optimal, the objective and x."""
    if cols.size:
        _check_edit(lp.changeColsBounds(cols.size, cols, lower, upper))
    lp.run()
    status = lp.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    return status, lp.getInfo().objective_function_value, np.array(lp.getSolution().col_value)


def _dijkstra(out: dict[int, list], source: int) -> tuple[dict, dict]:
    """Shortest distances from ``source`` over the arcs ``out[node]``, each
    ``(length, head, pair, tail node, head node)``, and the arc into each
    node reached as ``(pair, tail node, head node)``. A distance adds
    the lengths in path order from 0.0, the least such sum over all paths.
    Each node is settled once, from a binary heap."""
    dist, into = {source: 0.0}, {}
    heap, settled = [(0.0, source)], set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for length, head, pair, a, b in out.get(node, ()):
            if d + length < dist.get(head, math.inf):
                dist[head] = d + length
                into[head] = (pair, a, b)
                heapq.heappush(heap, (d + length, head))
    return dist, into


class _MulticutSolver:
    INTEGRALITY_TOL = 1e-6
    DECISION_DIGITS = 6       # x is rounded to 1e-6 before any decision reads it
    SEPARATION_TOL = 1e-7
    PRUNE_SLACK = 1e-8
    NODE_CAP = 500
    ROOT_ROUNDS = 50
    CHILD_ROUNDS = 10

    def __init__(self, instance: MulticutInstance, theta: float, rows=()):
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
            component = kernels.components(ordered.size, *local[inside].T)
            heads = np.flatnonzero(component == np.arange(ordered.size))
            root = int(ordered[0])
            mask_rows += [(c, var) for var in inside.tolist() + [
                extra.setdefault((root, b), edge_w.size + len(extra))
                for b in ordered[heads[1:]].tolist()]]
        # pair p joins _pair_array[p] = (u, v), u < v: the edges in edge
        # order, then the masks' extra pairs
        self._pair_array = np.concatenate(
            [edge_pairs, np.array(list(extra), dtype=np.int64).reshape(-1, 2)])
        self.n_pairs, self.n_masks = len(self._pair_array), len(instance.mask_constraints)
        # the arc index: both arcs of every pair, sorted by (tail, head);
        # arc i runs from its tail to _arc_head[i] along pair _arc_pair[i],
        # node t's arcs are _arc_ptr[t]:_arc_ptr[t + 1], and the sorted keys
        # tail * n + head, then n * n, which no arc has, serve _pair_of
        u, v = self._pair_array.T
        keys = np.concatenate([u * n + v, v * n + u])
        arc_order = np.argsort(keys)
        self._arc_keys = np.append(keys[arc_order], n * n)
        self._arc_head = np.concatenate([v, u])[arc_order]
        self._arc_pair = np.tile(np.arange(self.n_pairs), 2)[arc_order]
        self._arc_ptr = np.searchsorted(self._arc_keys, np.arange(n + 1) * n)
        cost = np.concatenate([edge_w, np.zeros(self.n_pairs - edge_w.size), -mask_h])
        # one HiGHS model per instance: its columns and the mask rows are
        # added here, each cycle row as separation finds it; every LP starts
        # from the last one's basis
        self._lp = highs._Highs()
        self._lp.passOptions(_HIGHS_OPTIONS)
        n_vars = cost.size
        _check_edit(self._lp.addVars(n_vars, np.zeros(n_vars), np.ones(n_vars)))
        _check_edit(self._lp.changeColsCost(n_vars, np.arange(n_vars, dtype=np.int32), cost))
        self._lower, self._upper = np.zeros(n_vars), np.ones(n_vars)
        cols = np.array([(self.n_pairs + c, var) for c, var in mask_rows], dtype=np.int32).ravel()
        vals = np.tile([1.0, -1.0], len(mask_rows))
        _check_edit(self._lp.addRows(len(mask_rows), np.full(len(mask_rows), -np.inf),
                                     np.zeros(len(mask_rows)), cols.size,
                                     np.arange(0, cols.size, 2, dtype=np.int32), cols, vals))
        # search counters; proven_optimal turns false when NODE_CAP stops it
        self.lp_solves = self.nodes = 0
        self.proven_optimal = True
        self._rows: dict = {}            # (chosen, others) of each cycle row added, by its key
        self._triangles, self._quads = self._enumerate_short_cycles()
        self.rows_reused = self._seed(rows)

    def _pair_of(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Index of each pair {a, b}, or -1 where there is none."""
        q = a * self.instance.node_count + b
        pos = np.searchsorted(self._arc_keys, q)
        found = self._arc_keys[pos] == q
        pair = np.full(q.shape, -1)
        pair[found] = self._arc_pair[pos[found]]
        return pair

    def _enumerate_short_cycles(self):
        """Chordless cycles of length 3 and 4 as var-index arrays, found once.

        Each pair (u, v), u < v, is expanded over the arc index's arcs out of
        u (and, for quads, then over those out of v), every node's arcs in
        head order. So triangles (e_uv, e_uw, e_vw), w > v, come in
        (e_uv, w) order and quads (e_uv, e_ua, e_ab, e_vb), whose chords
        {a, v} and {u, b} are not pairs and whose (u, v) is below the sorted
        (a, b), in (e_uv, a, b) order.
        """
        u, v = self._pair_array.T

        def expand(nodes):
            """(position in ``nodes``, arc) for every arc out of each node, in order."""
            start = self._arc_ptr[nodes]
            counts = self._arc_ptr[nodes + 1] - start
            at = np.repeat(np.arange(nodes.size), counts)
            return at, np.arange(at.size) - np.repeat(np.cumsum(counts) - counts - start, counts)

        e, arc = expand(u)
        w, e_uw = self._arc_head[arc], self._arc_pair[arc]
        e_vw = self._pair_of(v[e], w)
        tri = np.stack([e, e_uw, e_vw], axis=1)[(w > v[e]) & (e_vw >= 0)]

        # the quads' a ranges over the same neighbours w of u
        keep = (w != v[e]) & (e_vw < 0)
        e, a, e_ua = e[keep], w[keep], e_uw[keep]
        at, arc = expand(v[e])
        e, a, e_ua = e[at], a[at], e_ua[at]
        b, e_vb = self._arc_head[arc], self._arc_pair[arc]
        e_ab = self._pair_of(a, b)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = ((b != u[e]) & (b != a) & (self._pair_of(u[e], b) < 0) & (e_ab >= 0)
                & ((u[e] < lo) | ((u[e] == lo) & (v[e] < hi))))
        quad = np.stack([e, e_ua, e_ab, e_vb], axis=1)[keep]
        return tri, quad

    # -- LP ------------------------------------------------------------------

    def _solve_lp(self, fixed: dict[int, int]):
        """(objective, x) of the LP with ``fixed`` variables held at their
        0/1 values, or None when those fixings make it infeasible. x comes
        rounded to ``DECISION_DIGITS``, so that a vertex reached from two
        bases gives every decision the same input."""
        lower, upper = np.zeros(self._lower.size), np.ones(self._upper.size)
        for var, val in fixed.items():
            lower[var] = upper[var] = val
        moved = np.flatnonzero((lower != self._lower) | (upper != self._upper)).astype(np.int32)
        self._lower, self._upper = lower, upper
        self.lp_solves += 1
        status, fun, x = _solve_highs(self._lp, moved, lower[moved], upper[moved])
        if status == highs.HighsModelStatus.kInfeasible:
            return None
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverError(f"LP solver failed with HiGHS model status {status.name}")
        return fun, np.round(x, self.DECISION_DIGITS)

    # -- separation ----------------------------------------------------------

    def _add_row(self, chosen: int, others: list[int]) -> bool:
        """Cycle row x_chosen >= sum(others) - (len(others) - 1), once per cycle."""
        key = (chosen, frozenset(others))
        if key in self._rows:
            return False
        self._rows[key] = (chosen, others)
        cols, vals = [chosen] + others, [-1.0] + [1.0] * len(others)
        _check_edit(self._lp.addRow(-np.inf, float(len(others) - 1), len(cols),
                                    np.array(cols, dtype=np.int32), np.array(vals)))
        return True

    def _seed(self, rows) -> int:
        """Add the cycle rows ``rows``, given as node pairs, in order, before
        any other cycle row, and return how many were added. A cycle row
        holds at every multicut of the graph, so any row of an earlier solve
        over the same superpixels holds here; one over a pair this instance
        lacks, a mask's extra pair, is dropped, as is a repeat."""
        if not rows:
            return 0
        n = self.instance.node_count
        ends = np.array([pair for chosen, others in rows for pair in (chosen, *others)],
                        dtype=np.int64).reshape(-1, 2)
        # a node outside the instance joins none of its pairs
        pairs = np.where(((ends >= 0) & (ends < n)).all(axis=1),
                         self._pair_of(*np.clip(ends, 0, n - 1).T), -1).tolist()
        start = 0
        for _, others in rows:
            row, start = pairs[start:start + 1 + len(others)], start + 1 + len(others)
            key = (row[0], frozenset(row[1:]))
            if -1 not in row and key not in self._rows:
                self._rows[key] = (row[0], row[1:])
        counts = np.array([1 + len(others) for _, others in self._rows.values()])
        if counts.size:
            cols = np.array([p for chosen, others in self._rows.values()
                             for p in (chosen, *others)], dtype=np.int32)
            starts = (np.cumsum(counts) - counts).astype(np.int32)
            vals = np.ones(cols.size)
            vals[starts] = -1.0
            _check_edit(self._lp.addRows(counts.size, np.full(counts.size, -np.inf),
                                         counts - 2.0, cols.size, starts, cols, vals))
        return int(counts.size)

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
        with it. Every pair on such a path has y below y_e - tol, so only
        an edge whose endpoints those cheap pairs join can close one:
        ``kernels.components`` over the pairs below the largest candidate's
        y_e - tol drops the rest, so a cycle-consistent integral point
        searches nothing.

        A path's length is the sum of its non-zero y in path order, so the
        search runs on the graph that the pairs with y = 0 contract (at a
        rounded x, every pair with y <= tol): its nodes are the components
        of those pairs, its arcs the cheap non-zero pairs between two of
        them, a handful where a cycle row is still missing. ``_dijkstra``
        gives that graph's distances, those of the full graph bit for bit
        wherever a row is added, once per source component, in candidate
        order. A path is expanded inside each component it crosses along
        zero pairs, breadth first over the arc index; any such path gives an
        equally violated row.
        """
        added = 0
        tol = self.SEPARATION_TOL
        y = np.clip(1.0 - x[:self.n_pairs], 0.0, None)
        candidates = np.flatnonzero(y > tol)
        if candidates.size == 0:
            return 0
        n = self.instance.node_count
        u, v = self._pair_array.T
        cheap = y < y[candidates].max() - tol
        component = kernels.components(n, u[cheap], v[cheap])
        src, dst = u[candidates], v[candidates]
        joined = component[src] == component[dst]
        if not joined.any():
            return 0
        candidates, src, dst = candidates[joined], src[joined], dst[joined]
        zero = y == 0.0
        block = kernels.components(n, u[zero], v[zero])
        arcs = np.flatnonzero(cheap & ~zero & (block[u] != block[v]))
        block, zero, weight = block.tolist(), zero.tolist(), y.tolist()
        out: dict[int, list] = {}       # block -> [(length, head block, pair, tail, head)]
        for p, a, b in zip(arcs.tolist(), u[arcs].tolist(), v[arcs].tolist()):
            out.setdefault(block[a], []).append((weight[p], block[b], p, a, b))
            out.setdefault(block[b], []).append((weight[p], block[a], p, b, a))
        ptr, head, pair = (self._arc_ptr.tolist(), self._arc_head.tolist(),
                           self._arc_pair.tolist())

        def zero_path(start: int, goal: int) -> list[int]:
            """The pairs of a path of zero pairs from start to goal, goal first."""
            into = {start: None}
            queue = [start]
            for node in queue:
                if node == goal:
                    break
                for i in range(ptr[node], ptr[node + 1]):
                    if zero[pair[i]] and head[i] not in into:
                        into[head[i]] = (node, pair[i])
                        queue.append(head[i])
            pairs = []
            while goal != start:
                goal, p = into[goal]
                pairs.append(p)
            return pairs

        searched: dict[int, tuple[dict, dict]] = {}
        for e, s, t in zip(candidates.tolist(), src.tolist(), dst.tolist()):
            source = block[s]
            if source not in searched:
                searched[source] = _dijkstra(out, source)
            dist, into = searched[source]
            if not dist.get(block[t], math.inf) < weight[e] - tol:
                continue
            others, node = [], t
            while block[node] != source:
                p, a, b = into[block[node]]
                others += zero_path(b, node) + [p]
                node = a
            others += zero_path(s, node)
            if self._add_row(e, others):
                added += 1
            if added >= 50:
                break
        return added

    # -- rounding and branching -----------------------------------------------

    def _round(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The partition into connected components of the pairs x merges,
        each node labelled with its component's smallest node, and its
        objective under the true weights, which reads only which labels
        are equal; ``solve_multicut`` makes the labels canonical once."""
        u, v = self._pair_array[x[:self.n_pairs] >= 0.5].T
        assign = kernels.components(self.instance.node_count, u, v)
        return assign, kernels.multicut_objectives(assign[:, None], *self._arrays)[0]

    def _branch_var(self, x: np.ndarray, fixed: dict[int, int]):
        """The unfixed fractional pair whose x lies nearest 0.5, the first in
        pair order on ties, or None when every pair is integral."""
        frac = np.abs(x[:self.n_pairs] - 0.5)
        return next((int(i) for i in np.argsort(frac, kind="stable")
                     if frac[i] < 0.5 - self.INTEGRALITY_TOL and int(i) not in fixed), None)

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
            cand, cand_obj = self._round(x)
            if cand_obj < best_obj - 1e-12:
                best_obj, best_assign = cand_obj, cand
            if obj >= best_obj + self.PRUNE_SLACK:
                continue
            branch_var = self._branch_var(x, fixed)
            if branch_var is None:
                # x is integral, so no point in the node beats its LP value,
                # the objective of the partition it rounds to
                continue
            first = int(x[branch_var] >= 0.5)   # the nearer value is explored first
            stack.append({**fixed, branch_var: 1 - first})
            stack.append({**fixed, branch_var: first})
        self.proven_optimal = not stack
        if best_assign is None:
            # x = 0 satisfies every row, so only a failed root LP gets here
            raise SolverError("the multicut's root LP has no solution")
        return best_assign, float(best_obj)


def solve_multicut(instance: MulticutInstance, theta: float, rows=()) -> MulticutSolution:
    """Minimize the biased grouping objective over partition-consistent
    labelings. ``rows`` are cycle rows, as a ``MulticutSolution`` over the
    same superpixels gives them, that the LP holds from its start."""
    _check_theta(theta)
    if not isinstance(instance, MulticutInstance):
        raise MalformedInputError("expected a MulticutInstance")
    solver = _MulticutSolver(instance, theta, rows)
    assign, objective = solver.solve()
    partition = Partition.from_assignment(assign)
    pair = [tuple(p) for p in solver._pair_array.tolist()]
    return MulticutSolution(
        partition=partition,
        objective=objective,
        mask_active=_mask_active(instance, partition.assignment),
        lp_solves=solver.lp_solves, nodes=solver.nodes,
        cuts=len(solver._rows) - solver.rows_reused,
        proven_optimal=solver.proven_optimal,
        rows_reused=solver.rows_reused,
        rows=tuple((pair[chosen], tuple(pair[p] for p in others))
                   for chosen, others in solver._rows.values()))
