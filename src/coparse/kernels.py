"""Hot numeric kernels, one numpy/Python implementation each.

HOG cell accumulation and sliding-window template scoring are vectorized
with ``np.bincount`` and strided matrix products; the multicut objective is
scored over a node-major table of assignments at once, whether the table
holds every set partition (the oracle: one pass over the columns per edge)
or one column (a rounded LP point of the solver: every edge at once,
summed down by ``cumsum``), in the same order and bits;
connected components, of a raster's row runs or of a multicut's merged
pairs, come from hooking roots and pointer jumping over the edge arrays,
with no sparse matrix; Dinic max-flow is a plain Python loop over per-node
adjacency lists in arc order, which ``graphcut.max_flow`` builds from arc
arrays (Phase II, where it runs, is a small share of a run); the
box-constrained dual of both SVMs, the exemplar SVMs of Phase I and the
appearance machines of Phase II, is solved by projected Newton. The tests
check the vectorized kernels against straightforward reference loops, the
components against a union-find, Dinic through flow/cut duality and the
dual solver through its KKT conditions and duality gap.
"""

from __future__ import annotations

import functools

import numpy as np


# ---------------------------------------------------------------------------
# Orientation-cell histograms (HOG accumulation)
# ---------------------------------------------------------------------------

def cell_histograms(mag, obin, cells_y, cells_x):
    """Accumulate 9 orientation bins per 8x8 cell, magnitude weighted.

    ``mag`` float64 and ``obin`` int64 rasters; pixels beyond the cell grid
    are ignored. Each bin adds its pixels in row-major order.
    """
    h, w = cells_y * 8, cells_x * 8
    rows = np.arange(h)[:, None] // 8
    cols = np.arange(w)[None, :] // 8
    flat = (rows * cells_x + cols) * 9 + obin[:h, :w]
    out = np.bincount(flat.ravel(), weights=mag[:h, :w].ravel(),
                      minlength=cells_y * cells_x * 9)
    return out.reshape(cells_y, cells_x, 9)


# ---------------------------------------------------------------------------
# Sliding-window template scores over block-normalized descriptors
# ---------------------------------------------------------------------------

def score_windows(blocks, win_by, win_bx, wvec, step):
    """Dot a flattened template weight vector against every window.

    ``blocks`` is the (BY, BX, 36) array of block-normalized descriptors for
    one image scale; a window covers ``win_by`` x ``win_bx`` blocks and
    advances ``step`` cells per move.
    """
    by, bx, d = blocks.shape
    ny = (by - win_by) // step + 1
    nx = (bx - win_bx) // step + 1
    w = wvec.reshape(win_by, win_bx, d)
    out = np.zeros((ny, nx), np.float64)
    for a in range(win_by):
        for b in range(win_bx):
            sl = blocks[a:a + (ny - 1) * step + 1:step,
                        b:b + (nx - 1) * step + 1:step]
            out += sl @ w[a, b]
    return out


# ---------------------------------------------------------------------------
# Box-constrained SVM dual
# ---------------------------------------------------------------------------

def _newton_step(q, g, free):
    """The Newton step -Q_FF^-1 g_F on the free variables, zero elsewhere,
    and whether it is exact: Q_FF positive definite and nonsingular to LU.
    Otherwise the step is the least-squares solution of Q_FF d_F = -g_F.

    The upper Cholesky factorization, the one ``scipy.linalg.cho_factor``
    makes, only tests positive definiteness; one LU solve takes the step.
    A rank-deficient block can pass that test by rounding and still leave
    LU an exact zero pivot."""
    d = np.zeros(g.size)
    qf, gf = q[np.ix_(free, free)], g[free]
    try:
        np.linalg.cholesky(qf, upper=True)
        d[free] = np.linalg.solve(qf, -gf)
        return d, True
    except np.linalg.LinAlgError:
        d[free] = np.linalg.lstsq(qf, -gf, rcond=None)[0]
        return d, False


def _projected_search(q, a, f, c, g, d, t):
    """The first point ``b = clip(a + t d, 0, c)``, halving ``t`` at most 60
    times, whose objective lies below ``f`` by at least 1e-4 of g'(b - a);
    returned with its gradient, objective and ``t``, or None."""
    for _ in range(60):
        b = np.clip(a + t * d, 0.0, c)
        qb = q @ b
        fb = 0.5 * float(b @ qb) - float(b.sum())
        if fb < f and fb - f <= 1e-4 * float(g @ (b - a)):
            return b, qb - 1.0, fb, t
        t *= 0.5
    return None


def solve_box_qp(q, c, callback=None):
    """Minimise f(a) = 0.5 a'Qa - sum(a) subject to 0 <= a <= c by projected
    Newton (Bertsekas, SIAM J. Control Optim. 1982).

    This is the dual of a bias-free hinge-loss SVM with a C per sample:
    ``Q[i, j] = y_i y_j k(x_i, x_j)`` and the primal weights are
    ``w = sum_i a_i y_i phi(x_i)``, so ``(Qa)_i`` is sample i's margin.
    ``callback(a)`` sees each accepted iterate. Returns ``a`` and the duality
    gap ``P(w) - D(a)``, which bounds how far ``w`` is from the primal
    optimum of ``P(w) = 0.5 |w|^2 + sum_i c_i max(0, 1 - (Qa)_i)``; it is
    never negative in exact arithmetic, so rounding below 0 is reported as 0.

    Each iteration frees every variable but those at a bound that the
    gradient pushes against, and takes the Newton step on the free ones;
    a free variable at a bound that the step would push out of the box is
    fixed too, and the step solved again. The step's projected path
    ``clip(a + t d, 0, c)`` is searched from t = 1 by halving. Where the
    free block is singular the step is its least-squares solution, and
    where no point of the path lowers f, the projected gradient's path is
    searched from the ray's exact minimiser. The solve ends when a full,
    unclipped Newton step leaves the free set as it was, so the iterate
    minimises f on its face and satisfies the KKT conditions, or when
    neither path lowers f as computed.
    """
    q = np.asarray(q, dtype=np.float64)
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), q.shape[:1])
    a, g, f = np.zeros(c.size), -np.ones(c.size), 0.0
    solved = None
    while True:
        movable = ~(((a <= 0.0) & (g > 0.0)) | ((a >= c) & (g < 0.0)))
        free = movable.copy()
        while True:
            d, exact = _newton_step(q, g, free)
            out = free & (((a <= 0.0) & (d < 0.0)) | ((a >= c) & (d > 0.0)))
            if not out.any():
                break
            free &= ~out
        if solved is not None and np.array_equal(free, solved):
            break
        step = _projected_search(q, a, f, c, g, d, 1.0)
        solved = (free if step is not None and exact and step[3] == 1.0
                  and np.array_equal(step[0], a + d) else None)
        if step is None:
            d = np.where(movable, -g, 0.0)
            if not d.any():
                break
            # from the ray's exact minimiser, or from where the ray has
            # crossed the whole box if that comes first: the path stops there
            dqd = float(d @ (q @ d))
            t = float(np.divide(np.where(d > 0.0, c - a, a), np.abs(d),
                                out=np.zeros(d.size), where=d != 0.0).max())
            if dqd > 0.0:
                t = min(t, float(d @ d) / dqd)
            step = _projected_search(q, a, f, c, g, d, t)
            if step is None:
                break
        a, g, f = step[:3]
        if callback is not None:
            callback(a)
    qa = q @ a
    gap = float(a @ qa) - float(a.sum()) + float(c @ np.maximum(0.0, 1.0 - qa))
    return a, max(gap, 0.0)


# ---------------------------------------------------------------------------
# Connected components (hooking and pointer jumping)
# ---------------------------------------------------------------------------

def components(n, u, v):
    """Each of the nodes 0..n-1 labelled with the smallest node of its
    connected component under the edges (u[k], v[k]).

    Every node starts as its own root. Each round hooks, for every edge
    whose endpoints still have different roots, the larger root to the
    smaller (``np.minimum.at``, so a root hooked by several edges takes
    the smallest), then jumps each node's pointer to its pointer's pointer
    until no pointer moves, so every node points at its root again. A
    pointer only ever moves to a smaller node, so the root of a component
    is its smallest node, and a round leaves every component that still
    has an edge to another joined to at least one other: the rounds
    number at most about log2(n) (Shiloach & Vishkin, J. Algorithms 1982).
    """
    label = np.arange(n, dtype=np.int64)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


# ---------------------------------------------------------------------------
# Max-flow (Dinic: BFS level phases, each reused for many augmentations)
# ---------------------------------------------------------------------------

def dinic(n, s, t, adj, arc_to, cap):
    """Max flow on a residual network of Python lists. Mutates ``cap`` in place.

    Arcs come in (forward, reverse) pairs at indices (2k, 2k^1); ``adj[v]``
    lists node v's arc ids in arc order, as ``graphcut.max_flow`` builds
    them from arc arrays, so augmenting order is deterministic. Returns the
    flow value and the source side of a minimum cut: the nodes that the last
    BFS (the one that misses ``t``) reached.
    """
    eps = 1e-12
    flow = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for v in queue:
            for a in adj[v]:
                u = arc_to[a]
                if cap[a] > eps and level[u] < 0:
                    level[u] = level[v] + 1
                    queue.append(u)
        if level[t] < 0:
            break
        it = [0] * n
        parent = [0] * n
        v = s
        while True:
            if v == t:
                f = np.inf
                u = t
                while u != s:
                    a = parent[u]
                    if cap[a] < f:
                        f = cap[a]
                    u = arc_to[a ^ 1]
                u = t
                while u != s:
                    a = parent[u]
                    cap[a] -= f
                    cap[a ^ 1] += f
                    u = arc_to[a ^ 1]
                flow += f
                v = s
                continue
            arcs = adj[v]
            p = it[v]
            while p < len(arcs):
                a = arcs[p]
                u = arc_to[a]
                if cap[a] > eps and level[u] == level[v] + 1:
                    parent[u] = a
                    break
                p += 1
            it[v] = p
            if p < len(arcs):
                v = u
            elif v == s:
                break
            else:
                level[v] = -1
                v = arc_to[parent[v] ^ 1]
    return flow, np.array(level) >= 0


# ---------------------------------------------------------------------------
# Multicut objective over a table of assignments (oracle scan, rounded points)
# ---------------------------------------------------------------------------

@functools.cache
def rgs_table(n):
    """Every restricted-growth string of length ``n``, in lexicographic order.

    Column ``k`` (int8, shape ``(n, Bell(n))``) is the ``k``-th set partition
    in that order, node-major as ``multicut_objectives`` takes it. Built on
    first use from the table for ``n - 1`` and cached read-only.
    """
    if n <= 1:
        table = np.zeros((n, 1), np.int8)
    else:
        prev = rgs_table(n - 1)
        # each prefix is followed by the blocks it already uses plus one new;
        # the last entry counts 0, 1, ... within each prefix's run, summed in
        # int8 so that the build's temporaries stay small
        fanout = prev.max(axis=0) + 2
        table = np.empty((n, int(fanout.sum(dtype=np.int64))), np.int8)
        table[:-1] = np.repeat(prev, fanout, axis=1)
        step = np.ones(table.shape[1], np.int8)
        step[0] = 0
        step[np.cumsum(fanout[:-1], dtype=np.int64)] = 1 - fanout[:-1]
        np.cumsum(step, dtype=np.int8, out=table[-1])
    table.setflags(write=False)
    return table


# above NARROW_COLUMNS columns the per-edge pass is the faster one
NARROW_COLUMNS = 256


def multicut_objectives(table, edge_u, edge_v, edge_w, mask_ptr, mask_ids, mask_h):
    """Multicut objective of every column of a node-major assignment table.

    ``table[i, k]`` is node ``i``'s region in assignment ``k``. The objective
    sums the weights of merged edges, then subtracts the reward of every
    mask whose superpixels ``mask_ids[mask_ptr[c]:mask_ptr[c + 1]]`` share a
    region. Terms are added edge by edge, then mask by mask, in the order
    given, so an assignment gets the same bits in any table.

    A table of at most ``NARROW_COLUMNS`` columns (a rounded LP point, a
    single partition) takes its edges in one pass: an (edges, columns)
    array holds an edge's weight where it is merged and 0.0 elsewhere, and
    ``cumsum`` down the edges adds them in order, onto the zero objective.
    Adding 0.0 leaves every sum bit for bit as it was, since a sum that
    starts at +0.0 is never -0.0. A wider table (the oracle's) takes one
    pass over the columns per edge, so no (edges, columns) array is held.
    Masks take one pass over the columns each.
    """
    cols = table.shape[1]
    obj = np.zeros(cols, np.float64)
    if cols <= NARROW_COLUMNS:
        if edge_u.shape[0]:
            obj += np.cumsum(np.where(table[edge_u] == table[edge_v], edge_w[:, None], 0.0),
                             axis=0)[-1]
    else:
        for e in range(edge_u.shape[0]):
            np.add(obj, edge_w[e], out=obj, where=table[edge_u[e]] == table[edge_v[e]])
    for c in range(mask_h.shape[0]):
        first = table[mask_ids[mask_ptr[c]]]
        same = np.ones(cols, np.bool_)
        for p in range(mask_ptr[c] + 1, mask_ptr[c + 1]):
            same &= table[mask_ids[p]] == first
        np.subtract(obj, mask_h[c], out=obj, where=same)
    return obj
