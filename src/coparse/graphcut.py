"""Discrete MAP inference: max-flow/min-cut and alpha-expansion.

The flow solver is a Dinic-style augmenting-path algorithm (each BFS level
tree is reused for a whole blocking-flow phase) over a CSR residual network
with deterministic arc ordering. Alpha-expansion sweeps labels in vocabulary
order, reduces each move to a binary min-cut, truncates non-submodular edge
terms, and accepts a move only when the true energy strictly decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import kernels
from .errors import MalformedInputError, OracleTooLargeError, SolverError

ORACLE_MAX_STATES = 2_000_000


class FlowNetwork:
    """Directed arcs with capacities; reverse arcs are added automatically."""

    def __init__(self, node_count: int, source: int, sink: int):
        if node_count < 2 or source == sink:
            raise MalformedInputError("network needs distinct source and sink")
        if not (0 <= source < node_count and 0 <= sink < node_count):
            raise MalformedInputError("source/sink out of range")
        self.node_count = node_count
        self.source = source
        self.sink = sink
        self._from: list[int] = []
        self._to: list[int] = []
        self._cap: list[float] = []

    def add_arc(self, u: int, v: int, capacity: float) -> None:
        if not (0 <= u < self.node_count and 0 <= v < self.node_count) or u == v:
            raise MalformedInputError(f"bad arc ({u}, {v})")
        if not np.isfinite(capacity) or capacity < 0:
            raise MalformedInputError(f"arc capacity must be finite and >= 0, got {capacity}")
        self._from.extend([u, v])
        self._to.extend([v, u])
        self._cap.extend([float(capacity), 0.0])

    def _csr(self):
        n_arcs = len(self._to)
        frm = np.asarray(self._from, dtype=np.int64)
        to = np.asarray(self._to, dtype=np.int64)
        cap = np.asarray(self._cap, dtype=np.float64)
        order = np.argsort(frm, kind="stable")
        ptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.add.at(ptr[1:], frm, 1)
        ptr = np.cumsum(ptr)
        return ptr, order.astype(np.int64), to, cap, n_arcs


@dataclass(frozen=True)
class FlowResult:
    flow: float
    source_side: np.ndarray      # bool per node, True = source component of the cut
    cut_capacity: float


def max_flow(network: FlowNetwork) -> FlowResult:
    """Max flow with the min-cut side assignment; duality checked internally."""
    ptr, adj_arc, arc_to, cap0, n_arcs = network._csr()
    cap = cap0.copy()
    flow = kernels.dinic(network.node_count, network.source, network.sink,
                         ptr, adj_arc, arc_to, cap)
    # residual reachability from the source defines the cut side
    frm = np.asarray(network._from, dtype=np.int64)
    open_arc = cap > 1e-12
    residual = sparse.csr_array((np.ones(open_arc.sum()), (frm[open_arc], arc_to[open_arc])),
                                shape=(network.node_count, network.node_count))
    side = np.zeros(network.node_count, dtype=bool)
    side[csgraph.breadth_first_order(residual, network.source, return_predecessors=False)] = True
    crossing = side[frm] & ~side[arc_to]
    forward = np.arange(n_arcs) % 2 == 0
    cut = float(cap0[crossing & forward].sum())
    if abs(cut - flow) > 1e-6 * max(1.0, abs(flow)):
        raise SolverError(f"flow/cut mismatch: flow={flow!r} cut={cut!r}")
    return FlowResult(float(flow), side, cut)


# ---------------------------------------------------------------------------
# Multi-label problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelingProblem:
    """Vertices with candidate label sets, unary and pairwise energy tables.

    Candidate arrays must be strictly ascending; pairwise tables are indexed
    by candidate positions of their endpoints.
    """

    candidates: tuple[np.ndarray, ...]
    unary: tuple[np.ndarray, ...]
    edges: tuple[tuple[int, int, np.ndarray], ...] = ()

    def __post_init__(self):
        n = len(self.candidates)
        if n == 0 or len(self.unary) != n:
            raise MalformedInputError("candidates/unary length mismatch")
        for cand, un in zip(self.candidates, self.unary):
            if cand.size == 0 or (np.diff(cand) <= 0).any():
                raise MalformedInputError("candidate sets must be nonempty and ascending")
            if un.shape != cand.shape or not np.isfinite(un).all():
                raise MalformedInputError("unary table mismatch or non-finite")
        for u, v, table in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise MalformedInputError(f"bad edge ({u}, {v})")
            if table.shape != (self.candidates[u].size, self.candidates[v].size):
                raise MalformedInputError(f"pairwise table shape mismatch on ({u}, {v})")
            if not np.isfinite(table).all():
                raise MalformedInputError("pairwise table non-finite")

    def positions(self, labeling: np.ndarray) -> np.ndarray:
        pos = np.empty(len(self.candidates), dtype=np.int64)
        for i, cand in enumerate(self.candidates):
            j = np.searchsorted(cand, labeling[i])
            if j >= cand.size or cand[j] != labeling[i]:
                raise MalformedInputError(
                    f"label {labeling[i]} not a candidate of vertex {i}")
            pos[i] = j
        return pos


def energy_of(problem: LabelingProblem, labeling: np.ndarray) -> float:
    pos = problem.positions(np.asarray(labeling))
    total = sum(float(problem.unary[i][pos[i]]) for i in range(len(pos)))
    for u, v, table in problem.edges:
        total += float(table[pos[u], pos[v]])
    return total


@dataclass(frozen=True)
class ExpansionResult:
    labeling: np.ndarray
    energy: float
    move_energies: tuple[float, ...]   # energy after every accepted move
    sweeps: int


def _argmin_unary(problem: LabelingProblem) -> np.ndarray:
    return np.array([int(problem.candidates[i][int(np.argmin(problem.unary[i]))])
                     for i in range(len(problem.candidates))], dtype=np.int64)


def alpha_expansion(problem: LabelingProblem,
                    initial: np.ndarray | None = None,
                    max_sweeps: int = 10) -> ExpansionResult:
    """Move-making minimization; sweeps labels in ascending (vocabulary) order."""
    if initial is None:
        labeling = _argmin_unary(problem)
    else:
        labeling = np.asarray(initial, dtype=np.int64).copy()
    problem.positions(labeling)  # validates against the candidate sets
    energy = energy_of(problem, labeling)
    cand_sets = [set(int(c) for c in cand) for cand in problem.candidates]
    labels = sorted(set().union(*cand_sets))
    move_energies: list[float] = []
    sweeps_done = 0
    for _ in range(max_sweeps):
        sweeps_done += 1
        changed = False
        for alpha in labels:
            proposal = _expansion_move(problem, labeling, alpha, cand_sets)
            if proposal is None:
                continue
            new_energy = energy_of(problem, proposal)
            if new_energy < energy - 1e-12:
                labeling = proposal
                energy = new_energy
                move_energies.append(energy)
                changed = True
        if not changed:
            break
    return ExpansionResult(labeling=labeling, energy=energy,
                           move_energies=tuple(move_energies), sweeps=sweeps_done)


def _expansion_move(problem: LabelingProblem, labeling: np.ndarray, alpha: int,
                    cand_sets: list[set[int]]) -> np.ndarray | None:
    n = len(problem.candidates)
    movers = [i for i in range(n) if alpha in cand_sets[i] and labeling[i] != alpha]
    if not movers:
        return None
    node_of = {v: i for i, v in enumerate(movers)}
    m = len(movers)
    pos_cur = problem.positions(labeling)
    pos_alpha = [int(np.searchsorted(problem.candidates[i], alpha)) for i in range(n)]

    theta0 = np.zeros(m)   # cost of keeping the current label
    theta1 = np.zeros(m)   # cost of switching to alpha
    for i, v in enumerate(movers):
        theta0[i] = problem.unary[v][pos_cur[v]]
        theta1[i] = problem.unary[v][pos_alpha[v]]

    pair_arcs: list[tuple[int, int, float]] = []
    for u, v, table in problem.edges:
        u_mov, v_mov = u in node_of, v in node_of
        if u_mov and v_mov:
            a = float(table[pos_cur[u], pos_cur[v]])
            b = float(table[pos_cur[u], pos_alpha[v]])
            c = float(table[pos_alpha[u], pos_cur[v]])
            d = float(table[pos_alpha[u], pos_alpha[v]])
            if a + d > b + c:
                d = b + c - a   # truncate the both-switch cost to restore submodularity
            iu, iv = node_of[u], node_of[v]
            theta1[iu] += c - a
            theta1[iv] += d - c
            cap = b + c - a - d
            if cap > 1e-15:
                pair_arcs.append((iu, iv, cap))
        elif u_mov:
            iu = node_of[u]
            theta0[iu] += float(table[pos_cur[u], pos_cur[v]])
            theta1[iu] += float(table[pos_alpha[u], pos_cur[v]])
        elif v_mov:
            iv = node_of[v]
            theta0[iv] += float(table[pos_cur[u], pos_cur[v]])
            theta1[iv] += float(table[pos_cur[u], pos_alpha[v]])

    source, sink = m, m + 1
    net = FlowNetwork(m + 2, source, sink)
    for i in range(m):
        delta = theta1[i] - theta0[i]
        if delta > 0:
            net.add_arc(source, i, delta)   # cut when i takes alpha
        elif delta < 0:
            net.add_arc(i, sink, -delta)    # cut when i keeps its label
    for iu, iv, cap in pair_arcs:
        net.add_arc(iu, iv, cap)
    result = max_flow(net)
    proposal = labeling.copy()
    for i, v in enumerate(movers):
        if not result.source_side[i]:
            proposal[v] = alpha
    return proposal


def brute_force_map(problem: LabelingProblem) -> tuple[np.ndarray, float]:
    """Exact MAP by enumeration; ties resolve to the lexicographically
    smallest labeling (candidates are ascending, so position order is label
    order)."""
    sizes = [cand.size for cand in problem.candidates]
    total = 1
    for s in sizes:
        total *= s
        if total > ORACLE_MAX_STATES:
            raise OracleTooLargeError(
                f"state space exceeds {ORACLE_MAX_STATES}")
    n = len(sizes)
    best_energy = np.inf
    best_pos: np.ndarray | None = None
    chunk = 1 << 18
    # vertex 0 varies slowest so enumeration order is lexicographic
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        pos = (idx[:, None] // strides[None, :]) % np.asarray(sizes, dtype=np.int64)[None, :]
        energy = np.zeros(stop - start)
        for i in range(n):
            energy += problem.unary[i][pos[:, i]]
        for u, v, table in problem.edges:
            energy += table[pos[:, u], pos[:, v]]
        j = int(np.argmin(energy))
        if energy[j] < best_energy:
            best_energy = float(energy[j])
            best_pos = pos[j].copy()
    labeling = np.array([int(problem.candidates[i][best_pos[i]]) for i in range(n)],
                        dtype=np.int64)
    return labeling, best_energy
