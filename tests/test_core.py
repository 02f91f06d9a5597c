import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from coparse import kernels
from coparse.core import (
    Partition,
    Region,
    label_components,
    regions_of,
    superpixel_adjacency,
    validate_image_record,
)
from coparse.errors import MalformedInputError

from conftest import make_image

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _merged(part, pairs):
    """Merge indicator per (u, v) pair: True iff both ends share a region."""
    a = part.assignment
    return a[pairs[:, 0]] == a[pairs[:, 1]]


def _from_merged_pairs(n, pairs, merged):
    """The partition into connected components of the merged pairs, as the
    multicut's rounding builds it."""
    u, v = pairs[merged].T
    return Partition.from_assignment(kernels.components(n, u, v))


def _merged_components_ref(n, pairs, merged):
    """Smallest node id reachable over merged pairs, by repeated relaxation."""
    root = np.arange(n)
    changed = True
    while changed:
        changed = False
        for (u, v), m in zip(pairs, merged):
            if m and root[u] != root[v]:
                root[u] = root[v] = min(root[u], root[v])
                changed = True
    return root


def _label_components_ref(values):
    """One ``ndimage.label`` over the whole raster per distinct value."""
    comp = np.zeros(values.shape, dtype=np.int64)
    comp_values = []
    for value in np.unique(values):
        mask = values == value
        lab, n = ndimage.label(mask, structure=FOUR_CONN)
        comp[mask] = lab[mask] + len(comp_values) - 1
        comp_values.extend([int(value)] * n)
    return comp, np.asarray(comp_values, dtype=np.int64)


def _regions_of_loop(image, partition):
    """One ``np.nonzero`` of the full-image mask per region."""
    sp = image.superpixel_map
    h, w = sp.shape
    region_map = partition.assignment[sp]
    out = []
    for k in range(partition.k):
        ys, xs = np.nonzero(region_map == k)
        n = ys.size
        out.append(Region(
            id=(image.id, k),
            superpixels=tuple(int(j) for j in np.flatnonzero(partition.assignment == k)),
            region_map=region_map,
            bbox=(slice(int(ys.min()), int(ys.max()) + 1),
                  slice(int(xs.min()), int(xs.max()) + 1)),
            area=n,
            centroid=((ys.sum() + 0.5 * n) / n / h, (xs.sum() + 0.5 * n) / n / w),
        ))
    return out


# rasters of small values, so same-value components touch, wrap around holes
# and leave gaps in the values
RASTERS = st.tuples(st.integers(1, 14), st.integers(1, 14), st.integers(0, 2 ** 32 - 1),
                    st.sampled_from([(0, 1), (0, 3), (2, 5, 9), (0, 1, 2, 3, 4, 5, 6, 7)]))


def _raster(h, w, seed, alphabet):
    return np.random.default_rng(seed).choice(np.asarray(alphabet, dtype=np.int64), size=(h, w))


class TestRegionsOf:
    def test_identity_partition(self, quad_image):
        part = Partition.from_assignment([0, 1, 2, 3])
        regions = regions_of(quad_image, part)
        assert len(regions) == 4

    def test_all_in_one(self, quad_image):
        part = Partition.from_assignment([0, 0, 0, 0])
        (region,) = regions_of(quad_image, part)
        assert region.area_fraction == 1.0

    def test_two_groups_disjoint_and_covering(self, quad_image):
        part = Partition.from_assignment([0, 0, 1, 1])
        regions = regions_of(quad_image, part)
        assert len(regions) == 2
        # independent set-union check on the masks
        masks = [r.region_map == r.id[1] for r in regions]
        union = masks[0] | masks[1]
        overlap = masks[0] & masks[1]
        assert union.all()
        assert not overlap.any()
        assert regions[0].superpixels == (0, 1)
        assert regions[1].superpixels == (2, 3)

    def test_length_mismatch_rejected(self, quad_image):
        with pytest.raises(MalformedInputError):
            regions_of(quad_image, Partition.from_assignment([0, 0]))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(RASTERS, st.integers(1, 6))
    def test_equals_per_region_loop(self, drawn, groups):
        spmap, _ = label_components(_raster(*drawn))
        m = int(spmap.max()) + 1
        assignment = np.random.default_rng(drawn[2]).integers(0, groups, size=m)
        image = make_image(spmap, image_id="r")
        part = Partition.from_assignment(assignment)
        got, want = regions_of(image, part), _regions_of_loop(image, part)
        assert len(got) == len(want) == part.k
        for a, b in zip(got, want):
            assert (a.id, a.superpixels, a.bbox, a.area) == (b.id, b.superpixels, b.bbox, b.area)
            mask_a, mask_b = a.region_map == a.id[1], b.region_map == b.id[1]
            assert mask_a.dtype == mask_b.dtype and np.array_equal(mask_a, mask_b)
            assert a.centroid == b.centroid and a.area_fraction == b.area_fraction
            # one read-only map, shared by every region of the partition
            assert a.region_map is got[0].region_map and not a.region_map.flags.writeable
            assert a.region_map.dtype == b.region_map.dtype
            assert np.array_equal(a.region_map, b.region_map)

    def test_random_partitions_cover_exactly(self, quad_image):
        rng = np.random.default_rng(3)
        total = quad_image.superpixel_map.size
        for _ in range(20):
            part = Partition.from_assignment(rng.integers(0, 3, size=4))
            regions = regions_of(quad_image, part)
            assert sum((r.region_map == r.id[1]).sum() for r in regions) == total


class TestPartition:
    def test_canonical_relabeling(self):
        part = Partition.from_assignment([5, 5, 2, 7])
        assert part.assignment.tolist() == [0, 0, 1, 2]
        assert part.k == 3

    def test_edge_label_round_trip(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            # complete pair sets first, then sparse ones whose regions are
            # joined only through multi-hop paths, or split apart
            sparse = trial >= 50
            n = int(rng.integers(2, 41 if sparse else 12))
            assignment = rng.integers(0, 4, size=n)
            part = Partition.from_assignment(assignment)
            pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)
                              if not sparse or rng.uniform() < 0.3], dtype=np.int64).reshape(-1, 2)
            merged = _merged(part, pairs)
            rebuilt = _from_merged_pairs(n, pairs, merged)
            expected = Partition.from_assignment(_merged_components_ref(n, pairs, merged))
            assert rebuilt.equals(expected)
            assert np.array_equal(_merged(rebuilt, pairs), merged)
            if not sparse:
                assert part.equals(rebuilt)

    def test_empty_rejected(self):
        with pytest.raises(MalformedInputError):
            Partition.from_assignment([])

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
    def test_from_assignment_idempotent_and_canonical(self, labels):
        part = Partition.from_assignment(labels)
        a = part.assignment
        assert Partition.from_assignment(a).equals(part)
        # regions are numbered 0, 1, ... in order of first occurrence
        assert list(dict.fromkeys(a.tolist())) == list(range(part.k))
        given_labels = np.asarray(labels, dtype=np.int64)
        assert np.array_equal(given_labels[:, None] == given_labels[None, :],
                              a[:, None] == a[None, :])

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_from_edge_labels_round_trip(self, data):
        n = data.draw(st.integers(1, 12))
        part = Partition.from_assignment(data.draw(st.lists(st.integers(0, 4), min_size=n,
                                                            max_size=n)))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(all_pairs),
                                  max_size=len(all_pairs)))
        pairs = np.array([p for p, k in zip(all_pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        merged = _merged(part, pairs)
        rebuilt = _from_merged_pairs(n, pairs, merged)
        assert np.array_equal(_merged(rebuilt, pairs), merged)
        # the rebuilt regions refine the original ones, and equal them on all pairs
        a, b = part.assignment, rebuilt.assignment
        assert not ((b[:, None] == b[None, :]) & (a[:, None] != a[None, :])).any()
        if all(keep):
            assert rebuilt.equals(part)


class TestLabelComponents:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(RASTERS)
    def test_equals_per_value_labeling(self, drawn):
        values = _raster(*drawn)
        comp, comp_values = label_components(values)
        ref_comp, ref_values = _label_components_ref(values)
        assert comp.dtype == ref_comp.dtype and np.array_equal(comp, ref_comp)
        assert comp_values.dtype == ref_values.dtype and np.array_equal(comp_values, ref_values)

    @pytest.mark.parametrize("values", [
        [[4]],                                         # a single pixel
        [[1, 1, 1], [1, 0, 1], [1, 1, 1]],             # a ring around a hole
        [[7, 0, 7], [0, 7, 0], [7, 0, 7]],             # diagonal pixels stay apart
        [[0, 0, 9], [3, 3, 9], [0, 9, 9]],             # gaps in the values
    ])
    def test_hand_cases_equal_per_value_labeling(self, values):
        values = np.asarray(values, dtype=np.int64)
        comp, comp_values = label_components(values)
        ref_comp, ref_values = _label_components_ref(values)
        assert np.array_equal(comp, ref_comp) and np.array_equal(comp_values, ref_values)

    def test_matches_whole_raster_labeling(self):
        rng = np.random.default_rng(12)
        split_values = 0
        for _ in range(200):
            h, w = (int(x) for x in rng.integers(1, 13, size=2))
            values = rng.integers(0, 4, size=(h, w)) * 3 + int(rng.integers(0, 3))
            comp, comp_values = label_components(values)
            ref_comp, ref_values = _label_components_ref(values)
            assert np.array_equal(comp, ref_comp)
            assert np.array_equal(comp_values, ref_values)
            split_values += int((np.bincount(comp_values) > 1).sum())
        assert split_values > 100


class TestValidation:
    def test_valid_image_passes(self, quad_image):
        validate_image_record(quad_image, vocabulary_size=1)

    def test_gap_in_ids_rejected(self):
        image = make_image([[0, 0], [2, 2]])
        with pytest.raises(MalformedInputError):
            validate_image_record(image)

    def test_disconnected_superpixel_rejected(self):
        # id 0 appears in two opposite corners
        spmap = np.array([[0, 1], [1, 0]])
        image = make_image(spmap)
        with pytest.raises(MalformedInputError):
            validate_image_record(image)

    def test_tag_outside_vocabulary_rejected(self, quad_image):
        bad = make_image(quad_image.superpixel_map, tags=(7,))
        with pytest.raises(MalformedInputError):
            validate_image_record(bad, vocabulary_size=2)

    def test_shape_mismatch_rejected(self, quad_image):
        from coparse.core import ImageRecord

        bad = ImageRecord(id="bad", pixels=quad_image.pixels, tags=frozenset({0}),
                          superpixel_map=quad_image.superpixel_map,
                          contour_map=np.zeros((2, 2), dtype=bool))
        with pytest.raises(MalformedInputError):
            validate_image_record(bad)


class TestAdjacency:
    def test_quad_adjacency(self, quad_image):
        pairs, flags = superpixel_adjacency(quad_image.superpixel_map)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert flags.tolist() == [0, 0, 0, 0]

    def test_contour_flag_set_on_boundary(self, quad_image):
        contour = np.zeros((4, 4), dtype=bool)
        contour[0, 1] = True  # touches the 0|1 vertical boundary
        pairs, flags = superpixel_adjacency(quad_image.superpixel_map, contour)
        lookup = {tuple(p): f for p, f in zip(pairs.tolist(), flags.tolist())}
        assert lookup[(0, 1)] == 1
        assert lookup[(2, 3)] == 0
