import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coparse import features
from coparse.errors import DegenerateRegionError, PatchTooSmallError

from conftest import make_image


def full_mask(image):
    return np.ones(image.pixels.shape[:2], dtype=bool)


class TestRegionHistogram:
    def test_uniform_midgray(self):
        image = make_image(np.zeros((8, 8), dtype=int))  # pixels default to 128
        hist = features.region_histogram(features.image_maps(image.pixels), full_mask(image))
        color, grad = hist[:24], hist[24:]
        # value 128 falls in bin 4 of each 8-bin channel histogram
        expected_bins = {4, 8 + 4, 16 + 4}
        assert set(np.flatnonzero(color)) == expected_bins
        assert np.allclose(color[sorted(expected_bins)], 0.5 / 3)
        # constant image has zero gradients: uniform fallback
        assert np.allclose(grad, 0.5 / 16)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)
        image = make_image(np.zeros((10, 12), dtype=int), pixels=pixels)
        mask = np.zeros((10, 12), dtype=bool)
        mask[2:7, 3:9] = True
        hist = features.region_histogram(features.image_maps(image.pixels), mask)
        assert abs(hist.sum() - 1.0) <= 1e-9
        assert (hist >= 0).all()

    def test_black_white_split(self):
        pixels = np.zeros((8, 8, 3), dtype=np.uint8)
        pixels[:, 4:] = 255
        image = make_image(np.zeros((8, 8), dtype=int), pixels=pixels)
        hist = features.region_histogram(features.image_maps(image.pixels), full_mask(image))
        color = hist[:24]
        # per channel: equal mass in the lowest and highest intensity bins
        for ch in range(3):
            sub = color[ch * 8:(ch + 1) * 8]
            assert sub[0] == pytest.approx(sub[7])
            assert sub[1:7].sum() == 0.0

    def test_empty_mask_rejected(self):
        image = make_image(np.zeros((4, 4), dtype=int))
        with pytest.raises(DegenerateRegionError):
            features.region_histogram(features.image_maps(image.pixels),
                                      np.zeros((4, 4), dtype=bool))

    def test_matches_direct_binning_oracle(self):
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
        image = make_image(np.zeros((9, 9), dtype=int), pixels=pixels)
        mask = rng.uniform(size=(9, 9)) < 0.5
        mask[0, 0] = True
        hist = features.region_histogram(features.image_maps(image.pixels), mask)
        # independent oracle: count color bins by explicit iteration
        expected = np.zeros(24)
        for r in range(9):
            for c in range(9):
                if mask[r, c]:
                    for ch in range(3):
                        expected[ch * 8 + int(pixels[r, c, ch]) * 8 // 256] += 1
        expected *= 0.5 / expected.sum()
        assert np.allclose(hist[:24], expected)


def _masked_histogram(pixels, mask):
    """The 40-bin histogram gathered from the masked pixels alone."""
    px = pixels[mask]
    color = np.zeros(24)
    for ch in range(3):
        color[ch * 8:(ch + 1) * 8] = np.bincount(px[:, ch].astype(np.int64) * 8 // 256,
                                                 minlength=8)
    color *= 0.5 / color.sum()
    gy, gx = np.gradient(features.luma(pixels))
    theta = np.mod(np.arctan2(gy[mask], gx[mask]), 2.0 * np.pi)
    obin = np.minimum((theta * 16 / (2.0 * np.pi)).astype(np.int64), 15)
    grad = np.bincount(obin, weights=np.hypot(gx[mask], gy[mask]), minlength=16)
    total = grad.sum()
    grad = np.full(16, 0.5 / 16) if total <= 0.0 else grad * (0.5 / total)
    return np.concatenate([color, grad])


class TestRegionHistograms:
    def test_equals_per_mask_histograms_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h, w = (int(v) for v in rng.integers(6, 40, size=2))
            pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            # a flat block whose inner pixels have no gradient at all
            pixels[:5, :5] = rng.integers(0, 256, size=3, dtype=np.uint8)
            count = int(rng.integers(2, 30))
            labels = rng.integers(1, count, size=(h, w))
            labels[1:4, 1:4] = 0
            maps = features.image_maps(pixels)
            hists = features.region_histograms(maps, labels, count)
            assert hists.shape == (count, 40)
            assert (hists[0, 24:] == 0.5 / 16).all()
            for k in np.unique(labels):
                mask = labels == k
                assert (hists[k] == features.region_histogram(maps, mask)).all()
                assert (hists[k] == _masked_histogram(pixels, mask)).all()

    def test_maps_hold_small_indexes(self):
        pixels = np.random.default_rng(3).integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
        maps = features.image_maps(pixels)
        assert maps.grad_bin.dtype == maps.color_bin.dtype == np.uint8
        assert maps.luma.dtype == maps.magnitude.dtype == np.float64
        assert (maps.color_bin == pixels // 32).all()
        assert maps.grad_bin.max() < features.GRAD_BINS


# A non-finite angle (never an arctan2 of finite gradients) casts to an
# out-of-range integer on both paths; the bins agree where the platform
# casts NaN and both infinities to one value, as x86-64 does.
with np.errstate(invalid="ignore"):
    _CAST_NONFINITE_ALIKE = len(set(np.array([np.nan, np.inf, -np.inf]).astype(np.int64))) == 1
EDGE_ANGLES = [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0), -np.nextafter(np.pi, 0.0),
               -5e-324, -1e-300, -1e-17, -2e-16, 1e-300] \
    + ([np.inf, -np.inf] if _CAST_NONFINITE_ALIKE else [])


class TestUnsignedBins:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_ANGLES),
                              st.floats(-np.pi, np.pi, allow_nan=False)),
                    min_size=1, max_size=40))
    def test_equals_mod_pi_binning(self, angles):
        theta = np.array(angles, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            expected = np.minimum((np.mod(theta, np.pi) * features.HOG_BINS / np.pi)
                                  .astype(np.int64), features.HOG_BINS - 1)
            assert (features.unsigned_bins(theta) == expected).all()

    def test_pi_and_minus_pi_share_bin_zero(self):
        assert features.unsigned_bins(np.array([np.pi, -np.pi, -0.0])).tolist() == [0, 0, 0]


class TestChiSquare:
    def test_identity_is_zero(self):
        h = np.full(40, 1.0 / 40)
        assert features.chi_square(h, h) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=40)
        a /= a.sum()
        b = rng.uniform(size=40)
        b /= b.sum()
        assert features.chi_square(a, b) == pytest.approx(features.chi_square(b, a))

    def test_disjoint_support_is_one(self):
        a = np.zeros(40)
        a[0] = 1.0
        b = np.zeros(40)
        b[1] = 1.0
        assert features.chi_square(a, b) == pytest.approx(1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(size=40)
            a /= a.sum()
            b = rng.uniform(size=40)
            b /= b.sum()
            d = features.chi_square(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12

    def test_matrix_entries_are_pair_distances(self):
        rng = np.random.default_rng(5)
        a = rng.dirichlet(np.full(40, 0.3), size=6)
        b = rng.dirichlet(np.full(40, 0.3), size=5)
        a[a < 0.01] = 0.0   # shared empty bins take the zero-denominator branch
        b[b < 0.01] = 0.0
        matrix = features.chi_square(a[:, None], b[None])
        assert matrix.shape == (6, 5)
        for i in range(6):
            for j in range(5):
                assert matrix[i, j] == features.chi_square(a[i], b[j])
                plain = sum(0.5 * (x - y) ** 2 / (x + y) for x, y in zip(a[i], b[j]) if x + y > 0)
                assert matrix[i, j] == pytest.approx(plain, rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.floats(0.0, 0.9))
    def test_bits_equal_the_zero_buffer_formula(self, seed, rows_a, rows_b, empty):
        # histograms with empty bins, the first ten empty in every one, so
        # that many terms take the zero-denominator branch
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.full(40, 0.3), size=rows_a)
        b = rng.dirichlet(np.full(40, 0.3), size=rows_b)
        a[rng.uniform(size=a.shape) < empty] = 0.0
        b[rng.uniform(size=b.shape) < empty] = 0.0
        a[:, :10] = b[:, :10] = 0.0
        for x, y in ((a[:, None], b[None]), (a[0], b[0])):
            num, den = (x - y) ** 2, x + y
            old = 0.5 * np.divide(num, den, out=np.zeros_like(num), where=den > 0).sum(axis=-1)
            assert features.chi_square(x, y).tobytes() == old.tobytes()


class TestHog:
    def test_constant_patch_all_zero(self):
        desc = features.hog(np.full((16, 16), 77.0), (2, 2))
        assert desc.shape == (36,)
        assert np.all(desc == 0.0)

    def test_template_4x4_length(self):
        desc = features.hog(np.random.default_rng(0).uniform(size=(32, 32)), (4, 4))
        assert desc.size == 3 * 3 * 36

    def test_vertical_step_edge_horizontal_bin(self):
        patch = np.zeros((16, 16))
        patch[:, 8:] = 255.0
        desc = features.hog(patch, (2, 2)).reshape(4, 9)
        # per cell: all gradient mass lies in the horizontal-gradient bin 0
        mass = desc.sum(axis=1)
        assert np.allclose(desc[:, 0], mass)

    def test_intensity_offset_invariance(self):
        rng = np.random.default_rng(8)
        patch = rng.uniform(0, 200, size=(24, 24))
        a = features.hog(patch, (3, 3))
        b = features.hog(patch + 30.0, (3, 3))
        assert np.allclose(a, b)

    def test_small_template_rejected(self):
        with pytest.raises(PatchTooSmallError):
            features.hog(np.zeros((16, 16)), (1, 4))

    def test_tiny_patch_rejected(self):
        with pytest.raises(PatchTooSmallError):
            features.hog(np.zeros((1, 5)), (2, 2))


class TestTemplateFromBbox:
    def test_square(self):
        assert features.template_from_bbox(40, 40) == (8, 8)

    def test_tall(self):
        assert features.template_from_bbox(80, 40) == (8, 4)

    def test_wide_clamps_minimum(self):
        assert features.template_from_bbox(5, 100) == (2, 8)


def bilinear_resize_2d(img, out_h, out_w):
    """Bilinear resampling by a 2-D gather of each output pixel's four
    source neighbours, the resize ``features.bilinear_resize`` replaced."""
    src = np.asarray(img, dtype=np.float64)
    h, w = src.shape
    r = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    c = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    r0 = np.clip(np.floor(r).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(c).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = np.clip(r - r0, 0.0, 1.0)[:, None]
    fc = np.clip(c - c0, 0.0, 1.0)[None, :]
    top = src[r0[:, None], c0] * (1 - fc) + src[r0[:, None], c1] * fc
    bot = src[r1[:, None], c0] * (1 - fc) + src[r1[:, None], c1] * fc
    return top * (1 - fr) + bot * fr


class TestResize:
    def test_bilinear_matches_the_2d_gather_bit_for_bit(self):
        # up and down in each axis, 1-pixel sources and outputs, and the
        # same shape, which returns the raster itself
        rng = np.random.default_rng(7)
        shapes = [((1, 1), (1, 1)), ((1, 1), (5, 3)), ((6, 4), (1, 1)), ((1, 9), (4, 1)),
                  ((7, 9), (7, 9)), ((192, 256), (154, 205)), ((192, 256), (240, 320))]
        shapes += [(tuple(rng.integers(1, 40, 2)), tuple(rng.integers(1, 60, 2)))
                   for _ in range(300)]
        for (h, w), (out_h, out_w) in shapes:
            img = rng.uniform(-255.0, 255.0, size=(h, w))
            got = features.bilinear_resize(img, out_h, out_w)
            want = bilinear_resize_2d(img, out_h, out_w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                ((h, w), (out_h, out_w))
        assert features.bilinear_resize(img, h, w) is img

    def test_bilinear_identity(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(7, 9))
        assert np.allclose(features.bilinear_resize(img, 7, 9), img)

    def test_nearest_mask_identity(self):
        mask = np.random.default_rng(2).uniform(size=(5, 6)) < 0.5
        assert (features.nearest_resize_mask(mask, 5, 6) == mask).all()

    def test_bilinear_constant_preserved(self):
        img = np.full((5, 5), 3.25)
        out = features.bilinear_resize(img, 13, 7)
        assert np.allclose(out, 3.25)
