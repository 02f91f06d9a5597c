"""What ``import coparse.cli`` loads, the BLAS thread cap ``import coparse``
sets, and the numpy code that stands in for the scipy routines the package
no longer imports, checked against those routines."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, special

import coparse
from coparse import esvm, grouping
from coparse.core import Partition, dilate, label_components, regions_of

from conftest import make_image

SRC = str(Path(coparse.__file__).resolve().parents[1])

CLI_FIRST = """
import json, sys
sys.path.insert(0, sys.argv[1])
import coparse.cli
absent = [m for m in ("scipy.optimize", "scipy.ndimage", "scipy.special") if m not in sys.modules]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from scipy.optimize import linprog
res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[(0, 2), (0, 2)])
same = sys.modules["scipy.optimize._highspy._core"] is coparse.grouping.highs
print(json.dumps({"absent": absent, "loaded": loaded, "status": res.status, "fun": res.fun,
                  "same": same}))
"""

OPTIMIZE_FIRST = """
import sys
sys.path.insert(0, sys.argv[1])
import scipy.optimize._highspy._core as core
import coparse.grouping
print(coparse.grouping.highs is core)
"""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BLAS_CAP = f"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
import coparse
print(json.dumps({{name: os.environ.get(name) for name in {BLAS_VARS!r}}}))
"""


def _run(code: str, env: dict | None = None) -> str:
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    return out.stdout


class TestImports:
    def test_cli_loads_no_optimize_ndimage_or_special(self):
        doc = json.loads(_run(CLI_FIRST))
        assert doc["absent"] == ["scipy.optimize", "scipy.ndimage", "scipy.special"]
        # nothing of scipy but its HiGHS extension: not the package itself,
        # nor linalg, sparse or the _lib layer they load
        assert not {"scipy", "scipy.linalg", "scipy.sparse", "scipy._lib"} & set(doc["loaded"])
        core = "scipy.optimize._highspy._core"
        assert core in doc["loaded"]
        assert all(m == core or m.startswith(core + ".") for m in doc["loaded"])
        # linprog still solves on the HiGHS module coparse loaded
        assert doc["status"] == 0 and doc["fun"] == -5.0
        assert doc["same"] is True

    def test_grouping_reuses_a_loaded_highs_module(self):
        assert _run(OPTIMIZE_FIRST).strip() == "True"

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy"):
            grouping._load_highs()

    def test_import_caps_blas_threads_unless_set(self):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        assert json.loads(_run(BLAS_CAP, env)) == dict.fromkeys(BLAS_VARS, "1")
        env["OMP_NUM_THREADS"] = "3"
        assert json.loads(_run(BLAS_CAP, env)) == {**dict.fromkeys(BLAS_VARS, "1"),
                                                   "OMP_NUM_THREADS": "3"}


# rasters of every shape down to 1x1, many of them one row or one column
SHAPES = st.one_of(st.sampled_from([(1, 1), (1, 7), (9, 1), (1, 2), (2, 1)]),
                   st.tuples(st.integers(1, 16), st.integers(1, 16)))
RASTERS = st.tuples(SHAPES, st.integers(1, 5), st.integers(0, 2 ** 32 - 1))


def _raster(shape, values, seed):
    return np.random.default_rng(seed).integers(0, values, size=shape)


def _label_components_grid(values):
    """One ``ndimage.label`` over a grid interleaving the pixels with their
    equal-value links right and down, components ranked by value, then by
    first pixel."""
    h, w = values.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = values[:, :-1] == values[:, 1:]
    grid[1::2, ::2] = values[:-1, :] == values[1:, :]
    labels, count = ndimage.label(grid)
    labels = labels[::2, ::2] - 1
    comp_values = np.empty(count, dtype=np.int64)
    comp_values[labels] = values
    order = np.argsort(comp_values, kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)
    return rank[labels], comp_values[order]


class TestScipyOracles:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(RASTERS)
    def test_label_components_equals_ndimage_label(self, drawn):
        values = _raster(*drawn)
        comp, comp_values = label_components(values)
        ref_comp, ref_values = _label_components_grid(values)
        assert comp.dtype == ref_comp.dtype and np.array_equal(comp, ref_comp)
        assert comp_values.dtype == ref_values.dtype and np.array_equal(comp_values, ref_values)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(RASTERS, st.integers(1, 6))
    def test_region_boxes_equal_find_objects(self, drawn, groups):
        spmap, _ = label_components(_raster(*drawn))
        m = int(spmap.max()) + 1
        assignment = np.random.default_rng(drawn[2]).integers(0, groups, size=m)
        partition = Partition.from_assignment(assignment)
        regions = regions_of(make_image(spmap), partition)
        boxes = ndimage.find_objects(regions[0].region_map + 1, max_label=partition.k)
        assert [region.bbox for region in regions] == boxes

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(SHAPES, st.floats(0.0, 0.3), st.integers(0, 2 ** 32 - 1))
    def test_dilate_equals_binary_dilation(self, shape, density, seed):
        mask = np.random.default_rng(seed).random(shape) < density
        mask[0, 0] = mask[-1, -1] = True   # set pixels on the border
        for iterations in (1, 3, 5):
            assert np.array_equal(dilate(mask, iterations),
                                  ndimage.binary_dilation(mask, iterations=iterations))

    def test_calibration_sigmoid_has_expit_bits(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                            [0.0, -0.0, 709.78, -709.78, 709.79, -709.79, 745.2, -745.2,
                             1e308, -1e308, np.inf, -np.inf, 5e-324, -5e-324]])
        with np.errstate(over="ignore"):
            expected = special.expit(z)
        assert np.array_equal(esvm._expit(z).view(np.int64), expected.view(np.int64))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_calibration_sigmoid_has_expit_bits_on_any_float(self, values):
        z = np.array(values)
        with np.errstate(over="ignore"):
            expected = special.expit(z)
        assert np.array_equal(esvm._expit(z).view(np.int64), expected.view(np.int64))

