"""Discrete MAP inference: max-flow/min-cut and alpha-expansion.

``max_flow`` takes a network as three arc arrays (tails, heads,
capacities) and runs Dinic's algorithm over per-node adjacency lists that
keep each node's arcs in arc order, so augmentations run in a deterministic
order; its last BFS gives the source side of the cut.
Alpha-expansion sweeps labels in vocabulary order, reduces each move to a
binary min-cut (Kolmogorov & Zabih: one cost of taking alpha per mover, and a
pair arc only where both ends of an edge move), truncates non-submodular
edge terms, and accepts a move only when the true energy strictly decreases.
A labeling is handled as candidate positions until
``LabelingProblem.labels_of`` turns it into labels.

``LabelingProblem`` keeps every term in one flat array: vertex i's unary at
position p sits at ``unary_at[i] + p``, and edge e's table entry at (p_u,
p_v) at ``table_at[e] + p_u * width[e] + p_v``, ``width[e]`` being the size
of v's candidate set. That one formula gathers the terms of any table of
labelings (``terms``), which ``energies`` adds in term order, and the four
edge terms of each expansion move. Each move's arcs are built as arrays
too: the terminal arcs in mover order, then the pair arcs in edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import MalformedInputError, OracleTooLargeError, SolverError

ORACLE_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class FlowResult:
    flow: float
    source_side: np.ndarray      # bool per node, True = source component of the cut
    cut_capacity: float


def max_flow(node_count: int, source: int, sink: int, tail: np.ndarray, head: np.ndarray,
             capacity: np.ndarray) -> FlowResult:
    """Max flow over the arcs ``tail[k] -> head[k]`` of ``capacity[k]``, with
    the min-cut side assignment; duality checked internally.

    Arc k is Dinic's residual arc 2k and its reverse 2k + 1; each node lists
    its residual arcs in arc order, so augmentations follow the arc order.
    """
    if source == sink or not (0 <= source < node_count and 0 <= sink < node_count):
        raise MalformedInputError("network needs distinct source and sink in range")
    tail, head = np.asarray(tail, dtype=np.int64), np.asarray(head, dtype=np.int64)
    capacity = np.asarray(capacity, dtype=np.float64)
    if tail.ndim != 1 or not tail.shape == head.shape == capacity.shape:
        raise MalformedInputError("arc tails, heads and capacities must be 1-D and of one length")
    for k in np.flatnonzero((np.minimum(tail, head) < 0) | (np.maximum(tail, head) >= node_count)
                            | (tail == head))[:1]:
        raise MalformedInputError(f"bad arc ({tail[k]}, {head[k]})")
    for k in np.flatnonzero(~(np.isfinite(capacity) & (capacity >= 0)))[:1]:
        raise MalformedInputError(f"arc capacity must be finite and >= 0, got {capacity[k]}")
    ends = np.stack([tail, head], axis=1)
    # residual arc a leaves ends.ravel()[a] and enters the other end of its pair
    order = np.argsort(ends.ravel(), kind="stable").tolist()
    stops = np.cumsum(np.bincount(ends.ravel(), minlength=node_count)).tolist()
    adj = [order[start:stop] for start, stop in zip([0, *stops], stops)]
    residual = np.stack([capacity, np.zeros_like(capacity)], axis=1).ravel().tolist()
    flow, side = kernels.dinic(node_count, source, sink, adj, ends[:, ::-1].ravel().tolist(),
                               residual)
    cut = float(capacity[side[tail] & ~side[head]].sum())
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
    by candidate positions of their endpoints. ``labels`` is the ascending
    union of the candidate sets, and ``label_positions[i, c]`` the position
    of ``labels[c]`` among vertex i's candidates, or -1.
    """

    candidates: tuple[np.ndarray, ...]
    unary: tuple[np.ndarray, ...]
    edges: tuple[tuple[int, int, np.ndarray], ...] = ()
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    label_positions: np.ndarray = field(init=False, repr=False, compare=False)
    # the term store and its index formula (module docstring); vertex i's
    # candidate at position p is candidate_labels[unary_at[i] + p]
    candidate_labels: np.ndarray = field(init=False, repr=False, compare=False)
    term_values: np.ndarray = field(init=False, repr=False, compare=False)
    unary_at: np.ndarray = field(init=False, repr=False, compare=False)
    edge_u: np.ndarray = field(init=False, repr=False, compare=False)
    edge_v: np.ndarray = field(init=False, repr=False, compare=False)
    table_at: np.ndarray = field(init=False, repr=False, compare=False)
    width: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.candidates)
        if n == 0 or len(self.unary) != n:
            raise MalformedInputError("candidates/unary length mismatch")
        if any(un.shape != cand.shape for cand, un in zip(self.candidates, self.unary)):
            raise MalformedInputError("unary table shape mismatch")
        sizes = [cand.size for cand in self.candidates]
        cand, vertex = np.concatenate(self.candidates), np.repeat(np.arange(n), sizes)
        # each set ascends; the steps where the vertex changes may fall
        if 0 in sizes or cand.shape != vertex.shape or not (
                (np.diff(cand) > 0) | (np.diff(vertex) > 0)).all():
            raise MalformedInputError("candidate sets must be nonempty, 1-D and ascending")
        ends = np.array([(u, v) for u, v, _ in self.edges], dtype=np.int64).reshape(-1, 2)
        for e in np.flatnonzero((ends.min(axis=1) < 0) | (ends.max(axis=1) >= n)
                                | (ends[:, 0] == ends[:, 1]))[:1]:
            raise MalformedInputError(f"bad edge ({ends[e, 0]}, {ends[e, 1]})")
        for u, v, table in self.edges:
            if table.shape != (sizes[u], sizes[v]):
                raise MalformedInputError(f"pairwise table shape mismatch on ({u}, {v})")
        tables = [t.ravel() for _, _, t in self.edges]
        values = np.concatenate([*self.unary, *tables])
        if not np.isfinite(values).all():
            raise MalformedInputError("unary or pairwise table non-finite")
        starts = np.cumsum([0, *sizes, *(t.size for t in tables)], dtype=np.int64)
        labels = np.unique(cand)
        table = np.full((n, labels.size), -1, dtype=np.int64)
        table[vertex, np.searchsorted(labels, cand)] = np.arange(cand.size) - starts[vertex]
        for name, value in dict(
                labels=labels, label_positions=table, candidate_labels=cand,
                term_values=values, unary_at=starts[:n], edge_u=ends[:, 0], edge_v=ends[:, 1],
                table_at=starts[n:-1], width=np.diff(starts)[ends[:, 1]]).items():
            object.__setattr__(self, name, value)

    def positions(self, labeling: np.ndarray) -> np.ndarray:
        """Candidate position of each vertex's label."""
        labeling = np.asarray(labeling)
        if labeling.shape != (len(self.candidates),):
            raise MalformedInputError(f"labeling of shape {labeling.shape} for "
                                      f"{len(self.candidates)} vertices")
        col = np.minimum(np.searchsorted(self.labels, labeling), self.labels.size - 1)
        pos = np.where(self.labels[col] == labeling,
                       self.label_positions[np.arange(labeling.size), col], -1)
        for i in np.flatnonzero(pos < 0)[:1]:
            raise MalformedInputError(f"label {labeling[i]} not a candidate of vertex {i}")
        return pos

    def lowest_unary(self) -> np.ndarray:
        """Each vertex's candidate position of lowest unary energy, the first on ties."""
        vertex = np.repeat(np.arange(self.unary_at.size),
                           np.diff(self.unary_at, append=self.candidate_labels.size))
        # a stable sort by vertex, then unary, keeps the first position on ties
        order = np.lexsort((self.term_values[:vertex.size], vertex))
        return order[self.unary_at] - self.unary_at

    def labels_of(self, pos: np.ndarray) -> np.ndarray:
        """The labels at one labeling's candidate positions."""
        return self.candidate_labels[self.unary_at + pos].astype(np.int64)

    def terms(self, pos: np.ndarray) -> np.ndarray:
        """The (k, vertices + edges) term values of each row of a (k, n)
        table of candidate positions: the unaries in vertex order, then the
        edge terms in edge order."""
        return self.term_values[np.concatenate(
            [self.unary_at + pos,
             self.table_at + pos[:, self.edge_u] * self.width + pos[:, self.edge_v]], axis=1)]

    def energies(self, pos: np.ndarray) -> np.ndarray:
        """Energy of each row of a (k, n) table of candidate positions.

        ``cumsum`` adds a row's terms one by one in term order onto 0.0, so a
        labeling gets the same bits in any table.
        """
        return np.cumsum(np.concatenate([np.zeros((len(pos), 1)), self.terms(pos)], axis=1),
                         axis=1)[:, -1]


def energy_of(problem: LabelingProblem, labeling: np.ndarray) -> float:
    return float(problem.energies(problem.positions(labeling)[None])[0])


@dataclass(frozen=True)
class ExpansionResult:
    labeling: np.ndarray
    energy: float
    move_energies: tuple[float, ...]   # energy after every accepted move
    sweeps: int
    converged: bool          # false when max_sweeps ran out while a sweep still moved
    truncated_terms: int = 0   # non-submodular edge terms truncated over every move built


def alpha_expansion(problem: LabelingProblem, max_sweeps: int) -> ExpansionResult:
    """Move-making minimization from each vertex's lowest unary; sweeps labels
    in ascending (vocabulary) order."""
    pos = problem.lowest_unary()
    energy = float(problem.energies(pos[None])[0])
    move_energies: list[float] = []
    sweeps_done = 0
    truncated = 0
    changed = False
    for _ in range(max_sweeps):
        sweeps_done += 1
        changed = False
        for col in range(problem.labels.size):
            proposal = _expansion_move(problem, pos, col)
            if proposal is None:
                continue
            new_pos, move_truncated = proposal
            truncated += move_truncated
            new_energy = float(problem.energies(new_pos[None])[0])
            if new_energy < energy - 1e-12:
                pos = new_pos
                energy = new_energy
                move_energies.append(energy)
                changed = True
        if not changed:
            break
    return ExpansionResult(labeling=problem.labels_of(pos), energy=energy,
                           move_energies=tuple(move_energies), sweeps=sweeps_done,
                           converged=not changed, truncated_terms=truncated)


def _expansion_move(problem: LabelingProblem, pos_cur: np.ndarray,
                    col: int) -> tuple[np.ndarray, int] | None:
    """Best alpha-expansion of the labeling at candidate positions
    ``pos_cur`` for alpha = ``problem.labels[col]``, as (positions, number of
    edge terms truncated)."""
    pos_alpha = problem.label_positions[:, col]
    movers = np.flatnonzero((pos_alpha >= 0) & (pos_cur != pos_alpha))
    if movers.size == 0:
        return None
    m = movers.size
    node = np.full(pos_cur.size, -1, dtype=np.int64)
    node[movers] = np.arange(m)
    # each vertex's position after the move: alpha's if it moves, its own otherwise
    to = np.where(pos_alpha >= 0, pos_alpha, pos_cur)

    # Kolmogorov & Zabih's reduction: delta is a mover's cost of taking alpha
    values, first = problem.term_values, problem.unary_at[movers]
    delta = values[first + pos_alpha[movers]] - values[first + pos_cur[movers]]
    u, v = problem.edge_u, problem.edge_v
    iu, iv = node[u], node[v]
    # each edge's terms with its ends at (now, now), (now, to), (to, now) and
    # (to, to); an edge with no moving end has a = b = c = d, so it is never
    # truncated and adds nothing
    a, b, c, d = values[problem.table_at + np.stack([pos_cur[u], pos_cur[u], to[u], to[u]])
                        * problem.width + np.stack([pos_cur[v], to[v], pos_cur[v], to[v]])]
    truncate = a + d > b + c
    # truncate the both-switch cost to restore submodularity
    d = np.where(truncate, b + c - a, d)
    # edge by edge, c - a onto u's delta, then d - c onto v's: np.add.at adds
    # in index order, so every delta gets the bits of that sequence
    nodes = np.stack([iu, iv], axis=1).ravel()
    np.add.at(delta, nodes[nodes >= 0], np.stack([c - a, d - c], axis=1).ravel()[nodes >= 0])
    # with one end fixed, b + c - a - d is 0 up to rounding
    pair = b + c - a - d
    arcs = np.flatnonzero((iu >= 0) & (iv >= 0) & (pair > 1e-15))

    # terminal arcs in mover order (source -> i costs taking alpha, i -> sink
    # keeping the label), then pair arcs in edge order
    source, sink = m, m + 1
    moves = np.flatnonzero(delta != 0)
    takes = delta[moves] > 0
    tail = np.concatenate([np.where(takes, source, moves), iu[arcs]])
    head = np.concatenate([np.where(takes, moves, sink), iv[arcs]])
    side = max_flow(m + 2, source, sink, tail, head,
                    np.concatenate([np.abs(delta[moves]), pair[arcs]])).source_side
    pos = pos_cur.copy()
    pos[movers] = np.where(side[:m], pos_cur[movers], pos_alpha[movers])
    return pos, int(truncate.sum())


def brute_force_map(problem: LabelingProblem) -> tuple[np.ndarray, float]:
    """Exact MAP by enumeration; ties resolve to the lexicographically
    smallest labeling (candidates are ascending, so position order is label
    order)."""
    sizes = [cand.size for cand in problem.candidates]
    total = math.prod(sizes)
    if total > ORACLE_MAX_STATES:
        raise OracleTooLargeError(f"state space exceeds {ORACLE_MAX_STATES}")
    best_energy = np.inf
    best_pos: np.ndarray | None = None
    # at most 2**16 terms gathered at once, which keeps each chunk in cache
    chunk = max(1, (1 << 16) // (len(sizes) + len(problem.edges)))
    # vertex 0 varies slowest so enumeration order is lexicographic
    strides = np.cumprod([1] + sizes[:0:-1], dtype=np.int64)[::-1]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        pos = (idx[:, None] // strides[None, :]) % np.asarray(sizes, dtype=np.int64)[None, :]
        energy = problem.energies(pos)
        j = int(np.argmin(energy))
        if energy[j] < best_energy:
            best_energy = float(energy[j])
            best_pos = pos[j].copy()
    return problem.labels_of(best_pos), best_energy
