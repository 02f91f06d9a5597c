import numpy as np
import pytest
from scipy import ndimage

from coparse import synthgen
from coparse.core import validate_image_record
from coparse.errors import MalformedInputError

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def superpixel_purity(image):
    gt = image.ground_truth
    pure = 0
    m = int(image.superpixel_map.max()) + 1
    for s in range(m):
        if np.unique(gt[image.superpixel_map == s]).size == 1:
            pure += 1
    return pure / m


class TestSingleRectangle:
    def spec(self):
        return synthgen.SceneSpec(
            labels=(synthgen.LabelSpec("shirt", (0.5, 0.5), 0.02, (200, 40, 40)),),
            shapes_per_image=(1, 1),
            shape_kinds=("rect",),
            noise_level=0.0,
            seed=7,
        )

    def test_exactly_two_labels(self):
        corpus = synthgen.generate(self.spec(), 1)
        (image,) = corpus.images
        assert sorted(np.unique(image.ground_truth)) == [0, 1]
        assert image.tags == frozenset({0, 1})

    def test_contour_is_dilated_boundary(self):
        corpus = synthgen.generate(self.spec(), 1)
        (image,) = corpus.images
        gt = image.ground_truth
        boundary = np.zeros(gt.shape, dtype=bool)
        boundary[:, :-1] |= gt[:, :-1] != gt[:, 1:]
        boundary[:, 1:] |= gt[:, :-1] != gt[:, 1:]
        boundary[:-1, :] |= gt[:-1, :] != gt[1:, :]
        boundary[1:, :] |= gt[:-1, :] != gt[1:, :]
        expected = ndimage.binary_dilation(boundary, structure=FOUR)
        assert (image.contour_map == expected).all()
        assert image.contour_map.any()


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = synthgen.default_scene_spec(seed=5)
        a = synthgen.generate(spec, 3)
        b = synthgen.generate(spec, 3)
        for ia, ib in zip(a.images, b.images):
            assert ia.pixels.tobytes() == ib.pixels.tobytes()
            assert ia.superpixel_map.tobytes() == ib.superpixel_map.tobytes()
            assert ia.contour_map.tobytes() == ib.contour_map.tobytes()
            assert ia.ground_truth.tobytes() == ib.ground_truth.tobytes()
            assert ia.tags == ib.tags

    def test_different_seed_differs(self):
        a = synthgen.generate(synthgen.default_scene_spec(seed=5), 1)
        b = synthgen.generate(synthgen.default_scene_spec(seed=6), 1)
        assert a.images[0].pixels.tobytes() != b.images[0].pixels.tobytes()


@pytest.fixture(scope="module")
def corpus():
    return synthgen.generate(synthgen.default_scene_spec(seed=42), 20)


class TestDefaultCorpus:
    def test_core_invariants(self, corpus):
        for image in corpus.images:
            validate_image_record(image, vocabulary_size=len(corpus.vocabulary))

    def test_tags_match_ground_truth(self, corpus):
        for image in corpus.images:
            assert image.tags == frozenset(int(v) for v in np.unique(image.ground_truth))

    def test_superpixels_pure(self, corpus):
        purity = np.mean([superpixel_purity(img) for img in corpus.images])
        assert purity >= 0.99

    def test_vocabulary(self, corpus):
        assert corpus.vocabulary[0] == "background"
        assert len(corpus.vocabulary) == 5


class TestLocationRecovery:
    def test_canonical_means_recovered(self):
        spec = synthgen.default_scene_spec(seed=11)
        corpus = synthgen.generate(spec, 200)
        sums = {i: [] for i in range(1, 5)}
        for image in corpus.images:
            gt = image.ground_truth
            h, w = gt.shape
            for label in np.unique(gt):
                if label == 0:
                    continue
                ys, xs = np.nonzero(gt == label)
                sums[int(label)].append(((ys.mean() + 0.5) / h, (xs.mean() + 0.5) / w))
        for i, label_spec in enumerate(spec.labels, start=1):
            mean = np.mean(sums[i], axis=0)
            assert abs(mean[0] - label_spec.location_mean[0]) <= 0.05
            assert abs(mean[1] - label_spec.location_mean[1]) <= 0.05


class TestValidationErrors:
    def test_noise_range_enforced(self):
        with pytest.raises(MalformedInputError):
            synthgen.SceneSpec(noise_level=0.5)

    def test_n_images_positive(self):
        with pytest.raises(MalformedInputError):
            synthgen.generate(synthgen.default_scene_spec(), 0)

    def test_location_in_unit_square(self):
        with pytest.raises(MalformedInputError):
            synthgen.SceneSpec(labels=(
                synthgen.LabelSpec("x", (1.4, 0.5), 0.02, (10, 10, 10)),))


class TestShapeMargins:
    def test_every_placed_shape_has_pixels(self):
        # at 64x48 a side of 0.9 to 0.95 of the width sometimes leaves no
        # room for the 2-pixel margins; such a draw is redrawn, so the label
        # is always in the image
        spec = synthgen.SceneSpec(
            height=64, width=48, shapes_per_image=(1, 1), noise_level=0.0, seed=3,
            labels=(synthgen.LabelSpec("blob", (0.5, 0.5), 0.02, (200, 30, 30),
                                       size_range=(0.9, 0.95)),))
        for image in synthgen.generate(spec, 12).images:
            assert image.tags == frozenset({0, 1})
            assert (image.ground_truth == 1).any()
