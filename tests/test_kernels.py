"""Each kernel against a straightforward reference loop."""

import numpy as np

from coparse import kernels


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


def _multicut_enumerate_ref(n, edge_u, edge_v, edge_w, mask_ptr, mask_ids, mask_h):
    """Walk the restricted-growth strings one by one; strict ``<`` keeps the first best."""
    a = np.zeros(n, np.int64)
    m = np.zeros(n, np.int64)
    best = np.inf
    best_a = np.zeros(n, np.int64)
    while True:
        obj = 0.0
        for e in range(edge_u.shape[0]):
            if a[edge_u[e]] == a[edge_v[e]]:
                obj += edge_w[e]
        for c in range(mask_h.shape[0]):
            ids = mask_ids[mask_ptr[c]:mask_ptr[c + 1]]
            if (a[ids] == a[ids[0]]).all():
                obj -= mask_h[c]
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


class TestMulticutEnumerate:
    def test_numpy_matches_python(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.uniform() < 0.6]
            eu = np.array([p[0] for p in pairs], dtype=np.int64)
            ev = np.array([p[1] for p in pairs], dtype=np.int64)
            ew = rng.integers(0, 2, size=len(pairs)) - 0.5  # ties on purpose
            ids, mask_ptr, mask_h = [], [0], []
            for _ in range(int(rng.integers(0, 3))):
                size = int(rng.integers(1, n + 1))
                ids.extend(sorted(rng.choice(n, size=size, replace=False)))
                mask_ptr.append(len(ids))
                mask_h.append(rng.uniform())
            args = (n, eu, ev, ew, np.array(mask_ptr, dtype=np.int64),
                    np.array(ids, dtype=np.int64), np.array(mask_h, dtype=np.float64))
            obj_ref, a_ref = _multicut_enumerate_ref(*args)
            obj, a = kernels.multicut_enumerate(*args)
            assert obj == obj_ref
            assert a.dtype == np.int64
            assert np.array_equal(a, a_ref)
