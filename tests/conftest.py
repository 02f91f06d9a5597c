import multiprocessing
import os

# one BLAS thread, as the CLI and perfbench run; set before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from coparse.core import ImageRecord
from coparse.esvm import CALIBRATION_RIDGE


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test joins the processes it starts."""
    yield
    assert multiprocessing.active_children() == []


def make_image(spmap, pixels=None, contour=None, gt=None, tags=(0,), image_id="test"):
    """ImageRecord from a superpixel map, other rasters defaulted."""
    spmap = np.asarray(spmap, dtype=np.int64)
    h, w = spmap.shape
    if pixels is None:
        pixels = np.full((h, w, 3), 128, dtype=np.uint8)
    if contour is None:
        contour = np.zeros((h, w), dtype=bool)
    return ImageRecord(
        id=image_id,
        pixels=np.asarray(pixels, dtype=np.uint8),
        tags=frozenset(tags),
        superpixel_map=spmap,
        contour_map=np.asarray(contour, dtype=bool),
        ground_truth=None if gt is None else np.asarray(gt, dtype=np.int64),
    )


def assert_calibration_stationary(scores, labels, cal):
    """The gradient of ``esvm.calibrate``'s objective in (alpha, c), with
    z = alpha*s - c, vanishes at ``cal`` to 1e-6 relative."""
    scores = np.asarray(scores, dtype=np.float64)
    c = cal.alpha * cal.beta
    r = np.asarray(labels, dtype=np.float64) - 1.0 / (1.0 + np.exp(-(cal.alpha * scores - c)))
    grad_alpha = float(r @ scores) - 2.0 * CALIBRATION_RIDGE * cal.alpha
    assert abs(grad_alpha) <= 1e-6 * max(1.0, float(np.abs(scores).sum()))
    assert abs(float(r.sum())) <= 1e-6 * scores.size


@pytest.fixture
def quad_image():
    """4 equal quadrant superpixels on a 4x4 canvas."""
    spmap = np.zeros((4, 4), dtype=np.int64)
    spmap[:2, 2:] = 1
    spmap[2:, :2] = 2
    spmap[2:, 2:] = 3
    return make_image(spmap)
