import base64
import contextlib
import io as stdio
import json
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from coparse import cli, esvm, grouping, io, kernels, pipeline, synthgen


# the counter keys each phase writes into run-meta.json, spelled out here so
# that a counter dropped or renamed fails a test
PHASE1_KEYS = {
    "phase1_iterations", "phase1_converged", "phase1_fixed_point",
    "phase1_multicuts_solved", "phase1_multicuts_reused",
    "phase1_exemplars_trained", "phase1_exemplars_reused",
    "phase1_exemplars_unplaceable", "phase1_detections_kept",
    "phase1_esvm_max_duality_gap", "phase1_esvm_max_relative_duality_gap",
    "phase1_esvm_degenerate_calibrations", "phase1_images_changed",
    "phase1_orbit_length", "phase1_cycling_images",
    "phase1_multicut_lp_solves", "phase1_multicut_nodes", "phase1_multicut_cuts",
    "phase1_multicuts_unproven"}
PHASE2_KEYS = {
    "phase2_sweeps", "phase2_converged", "phase2_truncated_terms",
    "phase2_overruled_vertices", "phase2_overruled_pixels", "phase2_exterior_edges",
    "phase2_move_energies"}


def write_tiny_corpus(tmp_path, n=3, seed=5):
    corpus = synthgen.generate(synthgen.default_scene_spec(seed=seed), n)
    return io.save_corpus(corpus, tmp_path / "corpus")


class TestGen:
    def test_gen_writes_manifest(self, tmp_path):
        rc = cli.main(["gen", "--n", "2", "--out", str(tmp_path / "c"), "--seed", "3"])
        assert rc == 0
        corpus = io.load_corpus(tmp_path / "c" / "manifest.json")
        assert len(corpus.images) == 2

    SPEC = {
        "height": 64, "width": 48, "noise_level": 0.0, "seed": 1,
        "shapes_per_image": [1, 1],
        "labels": [{"name": "blob", "location_mean": [0.5, 0.5],
                    "location_sigma": 0.02, "color": [200, 30, 30]}],
    }

    def test_gen_custom_spec(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(self.SPEC))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 0
        corpus = io.load_corpus(tmp_path / "c" / "manifest.json")
        assert corpus.vocabulary == ("background", "blob")

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("height", "64"), ("width", 48.0), ("shape_kinds", []),
        ("shapes_per_image", ["1", "1"]), ("location_sigma", "x"), ("color", ["a", "b", "c"]),
    ], ids=["seed-str", "height-str", "width-float", "shape-kinds-empty", "shapes-str",
            "label-sigma-str", "label-color-str"])
    def test_wrongly_typed_spec_value_is_2(self, tmp_path, capsys, key, value):
        label = self.SPEC["labels"][0]
        spec = ({**self.SPEC, "labels": [{**label, key: value}]} if key in label
                else {**self.SPEC, key: value})
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: scene spec ")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("key, value", [
        ("cell_size", 0), ("height", 0), ("shapes_per_image", [3, 1]), ("cell_jitter", -5),
        ("location_sigma", -0.1), ("height", 1), ("width", 1),
        ("shape_kinds", ["rect", "triangle"]), ("name", "background"),
        ("labels", SPEC["labels"] * 2),
    ], ids=["cell-size-0", "height-0", "shapes-reversed", "jitter-negative",
            "label-sigma-negative", "height-1", "width-1", "unknown-kind", "background-label",
            "duplicate-labels"])
    def test_out_of_range_spec_value_is_2(self, tmp_path, capsys, key, value):
        label = self.SPEC["labels"][0]
        spec = ({**self.SPEC, "labels": [{**label, key: value}]} if key in label
                else {**self.SPEC, key: value})
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: scene spec ")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("where", ["label", "scene"])
    def test_unknown_spec_key_is_2(self, tmp_path, capsys, where):
        label = self.SPEC["labels"][0]
        spec = ({**self.SPEC, "labels": [{**label, "colour_sigma": 5.0}]} if where == "label"
                else {**self.SPEC, "colour_sigma": 5.0})
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad scene spec: ") and "colour_sigma" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_unplaceable_scene_is_2(self, tmp_path, capsys):
        # two labels that each fill most of the image and must both appear
        label = {**self.SPEC["labels"][0], "size_range": [0.9, 0.95]}
        spec = {**self.SPEC, "height": 128, "width": 96, "shapes_per_image": [2, 2],
                "labels": [label, {**label, "name": "pants"}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: img0000: could not place label ")
        assert not (tmp_path / "c").exists()

    def test_shapes_too_wide_for_their_margins_are_2(self, tmp_path, capsys):
        # at 64x48 some drawn sides leave no room for the 2-pixel margins;
        # those are redrawn, not clipped to an empty mask that would count
        # as placed, so the second label cannot be placed
        label = {**self.SPEC["labels"][0], "size_range": [0.9, 0.95]}
        spec = {**self.SPEC, "shapes_per_image": [2, 2],
                "labels": [label, {**label, "name": "pants"}]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: img0000: could not place label ")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_gen_no_images_is_2(self, tmp_path, capsys, n):
        rc = cli.main(["gen", "--n", n, "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: --n ")
        assert not (tmp_path / "c").exists()

    def test_gen_negative_seed_is_2(self, tmp_path, capsys):
        rc = cli.main(["gen", "--n", "1", "--out", str(tmp_path / "c"), "--seed", "-1"])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: ")
        assert not (tmp_path / "c").exists()


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path)
        (tmp_path / "bad.json").write_text('{"no_such_key": 1}')
        rc = cli.main(["run", "--manifest", str(manifest),
                       "--config", str(tmp_path / "bad.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_pairwise_mode_is_an_unknown_config_key(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=1)
        config = tmp_path / "cfg.json"
        config.write_text('{"pairwise_mode": "literal"}')
        rc = cli.main(["group", "--manifest", str(manifest), "--config", str(config),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"configuration error: bad config {config}: "
                                           "unknown keys ['pairwise_mode']\n")

    def test_lambda2_overflowing_the_dual_box_is_2(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=1)
        config = tmp_path / "cfg.json"
        config.write_text('{"lambda2": 1e308}')
        rc = cli.main(["run", "--manifest", str(manifest), "--config", str(config),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: lambda2 times 200 negatives per exemplar must be finite, "
            "got lambda2 = 1e+308\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        # detection's window offsets would overflow int64
        ('{"stride": 100000000000000000000}',
         "stride must be at most 9223372036854775807, got 100000000000000000000"),
        # an expansion's summed terms would overflow to an infinite arc capacity
        ('{"e_max": 1e308, "beta_pair": 1e308}',
         "e_max times 2**53 terms must be finite, got e_max = 1e+308"),
    ])
    def test_overflowing_value_is_2(self, tmp_path, capsys, text, message):
        manifest = write_tiny_corpus(tmp_path, n=1)
        config = tmp_path / "cfg.json"
        config.write_text(text)
        rc = cli.main(["run", "--manifest", str(manifest), "--config", str(config),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_is_3(self, tmp_path):
        rc = cli.main(["group", "--manifest", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_missing_prediction_is_3(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path)
        rc = cli.main(["eval", "--manifest", str(manifest),
                       "--pred", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 3

    @pytest.mark.parametrize("config", [
        {"k_top": "5"}, {"scales": 5}, {"theta": None}, {"theta": "0.5"}, {"seed": 1.5},
        {"lambda1": float("nan")}, {"seed": -1}, {"scales": [1.7e308]}, {"scales": [1.0, 4.5]},
    ], ids=["k_top-str", "scales-int", "theta-null", "theta-str", "seed-float", "lambda1-nan",
            "seed-negative", "scales-overflow", "scales-above-4"])
    def test_wrongly_typed_config_value_is_2(self, tmp_path, capsys, config):
        manifest = write_tiny_corpus(tmp_path, n=1)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = cli.main(["group", "--manifest", str(manifest),
                       "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: ")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["images"][0].pop("superpixels"),
        lambda doc: doc.update(images="oops"),
        lambda doc: doc.update(images=[7]),
        lambda doc: doc["images"][0].update(tags=5),
        lambda doc: doc.update(vocabulary=5),
        lambda doc: doc["images"][1].update(id=doc["images"][0]["id"]),
        lambda doc: doc["images"][0].update(id="sub/img"),
        lambda doc: doc["images"][0].update(id="/nonexistent/img"),
        lambda doc: doc["images"][0].update(id="a\x00b"),
        lambda doc: doc["images"][0].update(id="x" * 300),
        lambda doc: doc["images"][0].update(image="a\x00b"),
        lambda doc: doc["images"][0].update(superpixels="\ud800"),
    ], ids=["no-superpixels", "images-str", "images-int-entry", "tags-int", "vocabulary-int",
            "duplicate-id", "id-subdir", "id-absolute", "id-nul", "id-too-long", "image-nul",
            "superpixels-surrogate"])
    def test_malformed_manifest_is_3(self, tmp_path, capsys, edit):
        manifest = write_tiny_corpus(tmp_path, n=2)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, "data error: ")

    @pytest.mark.parametrize("key, value", [("k_top", 5.0), ("scales", [1.0, True])],
                             ids=["k_top-float", "scales-bool"])
    def test_wrongly_typed_config_value_names_the_file(self, tmp_path, capsys, key, value):
        manifest = write_tiny_corpus(tmp_path, n=1)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        rc = cli.main(["group", "--manifest", str(manifest),
                       "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert_one_line_error(capsys, f"configuration error: config {tmp_path / 'cfg.json'} "
                                      f"key {key!r} must be ")

    @pytest.mark.parametrize("key, value", [("tags", ["shirt", 1]), ("ground_truth", 5),
                                            ("contours", True)],
                             ids=["tags-int-item", "ground-truth-int", "contours-bool"])
    def test_wrongly_typed_manifest_value_names_the_file(self, tmp_path, capsys, key, value):
        manifest = write_tiny_corpus(tmp_path, n=2)
        doc = json.loads(manifest.read_text())
        doc["images"][1][key] = value
        manifest.write_text(json.dumps(doc))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, f"data error: manifest {manifest} image 1 key {key!r} "
                                      "must be ")

    @pytest.mark.parametrize("command", ["run", "esvm", "cv"])
    @pytest.mark.parametrize("shape", [(1, 40), (40, 1)], ids=["1-high", "1-wide"])
    def test_image_under_2x2_is_3(self, tmp_path, capsys, command, shape):
        # the features' np.gradient raised a ValueError on such an image
        image = synthgen.generate(FUZZ_SPEC, 1).images[0]
        tiny = replace(image, id="tiny", pixels=np.zeros((*shape, 3), dtype=np.uint8),
                       superpixel_map=np.zeros(shape, dtype=np.int64),
                       contour_map=np.zeros(shape, dtype=bool),
                       ground_truth=np.zeros(shape, dtype=np.int64), tags=frozenset({0}))
        corpus = io.Corpus(vocabulary=("background", "blob"), images=(image, tiny))
        manifest = io.save_corpus(corpus, tmp_path / "corpus")
        (tmp_path / "cfg.json").write_text(json.dumps({"fold_count": 2}))
        rc = cli.main([command, "--manifest", str(manifest), "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, f"data error: tiny: image is {shape[0]}x{shape[1]} "
                                      "pixels, under 2x2")

    def test_lp_failure_is_1(self, tmp_path, capsys, monkeypatch):
        manifest = write_tiny_corpus(tmp_path, n=1)
        monkeypatch.setattr(grouping, "_solve_highs",
                            lambda *a: (grouping.highs.HighsModelStatus.kSolveError, None, None))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert_one_line_error(capsys, "error: LP solver failed")

    def test_flow_cut_mismatch_is_1(self, tmp_path, capsys, monkeypatch):
        manifest = write_tiny_corpus(tmp_path, n=1)
        phase1 = tmp_path / "phase1"
        assert cli.main(["group", "--manifest", str(manifest), "--out", str(phase1)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(kernels, "dinic", lambda n, s, *args: (-1.0, np.arange(n) == s))
        rc = cli.main(["colabel", "--manifest", str(manifest), "--phase1", str(phase1),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert_one_line_error(capsys, "error: flow/cut mismatch")


NOT_UTF8 = b'{"seed": "\xff\xfe"}'
TOO_DEEP = b"[" * 100000 + b"]" * 100000


class TestBadFiles:
    """A file that cannot be read or written ends in one line, not a traceback."""

    @pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
    def test_config_not_json_is_2(self, tmp_path, capsys, text):
        manifest = write_tiny_corpus(tmp_path, n=1)
        (tmp_path / "cfg.json").write_bytes(text)
        rc = cli.main(["group", "--manifest", str(manifest),
                       "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: config ")

    @pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
    def test_scene_spec_not_json_is_2(self, tmp_path, capsys, text):
        (tmp_path / "spec.json").write_bytes(text)
        rc = cli.main(["gen", "--spec", str(tmp_path / "spec.json"), "--n", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: scene spec ")

    @pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
    def test_manifest_not_json_is_3(self, tmp_path, capsys, text):
        manifest = write_tiny_corpus(tmp_path, n=1)
        manifest.write_bytes(text)
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, "data error: manifest ")

    def test_raster_that_is_a_directory_is_3(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=1)
        doc = json.loads(manifest.read_text())
        doc["images"][0]["contours"] = "."
        manifest.write_text(json.dumps(doc))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, "data error: cannot read ")

    def test_prediction_that_is_a_directory_is_3(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=1)
        image_id = json.loads(manifest.read_text())["images"][0]["id"]
        (tmp_path / "pred" / f"{image_id}.labels.pgm").mkdir(parents=True)
        rc = cli.main(["eval", "--manifest", str(manifest), "--pred", str(tmp_path / "pred"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert_one_line_error(capsys, "data error: cannot read ")

    def test_region_map_that_is_a_directory_is_3(self, grouped_corpus, tmp_path):
        manifest, grouped = grouped_corpus
        phase1 = tmp_path / "phase1"
        shutil.copytree(grouped, phase1)
        region_map = sorted(phase1.glob("*.regions.pgm"))[0]
        region_map.unlink()
        region_map.mkdir()
        rc, err = run_quietly(["colabel", "--manifest", str(manifest), "--phase1", str(phase1),
                               "--out", str(tmp_path / "out")])
        assert rc == 3
        assert err.startswith("data error: cannot read ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_out_naming_a_file_is_2(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        inputs = (["--n", "1"] if command == "gen"
                  else ["--manifest", str(write_tiny_corpus(tmp_path, n=1))])
        rc = cli.main([command, *inputs, "--out", str(taken)])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: cannot write output: ")
        assert taken.read_text() == ""

    def test_eval_out_in_a_missing_directory_is_2(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=1)
        corpus = io.load_corpus(manifest)
        (tmp_path / "pred").mkdir()
        for image in corpus.images:
            io.write_pgm16(tmp_path / "pred" / f"{image.id}.labels.pgm", image.ground_truth)
        rc = cli.main(["eval", "--manifest", str(manifest), "--pred", str(tmp_path / "pred"),
                       "--out", str(tmp_path / "missing" / "m.json")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: cannot write output: ")


# file names a fuzzed manifest or config may hold: the corpus's own files,
# path specials, a NUL, an unencodable surrogate and an over-long name
FUZZ_TEXT = ["", ".", "..", "a\x00b", "\ud800", "x" * 300, "background", "blob", "manifest.json",
             "img0000.ppm", "img0000.sp.pgm", "img0000.contour.pgm", "img0000.gt.pgm"]
FUZZ_NUMBER = st.sampled_from([0, 1, -1, 2, 50, 2 ** 63, 0.0, 1e-300, 5e-324, 0.5,
                               1.0 - 1e-16, 4.0, 1e6, 1.7e308])
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | FUZZ_NUMBER | st.floats() | st.integers() | st.text(max_size=6)
    | st.sampled_from(FUZZ_TEXT),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
# config values of each field's JSON type; any JSON value now and then
FUZZ_CONFIG_TYPED = {
    "int": st.sampled_from([0, 1, -1, 2, 50, 2 ** 63]),
    "float": FUZZ_NUMBER,
    "str": st.sampled_from(["smoothing", "literal", "potts"]),
    "tuple[float, ...]": st.lists(FUZZ_NUMBER, min_size=1, max_size=3),
}


# 48x40 one-garment images, so that `run` with a valid config takes about a second
FUZZ_SPEC = synthgen.SceneSpec(height=48, width=40, noise_level=0.0, seed=1,
                               shapes_per_image=(1, 1), labels=(
                                   synthgen.LabelSpec("blob", (0.5, 0.5), 0.02, (200, 30, 30)),))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """One FUZZ_SPEC image."""
    return io.save_corpus(synthgen.generate(FUZZ_SPEC, 1),
                          tmp_path_factory.mktemp("fuzz") / "corpus")


def run_quietly(argv):
    """Exit code and standard error of one in-process CLI run; raises what it raises."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


class TestFuzz:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_fuzzed_manifest_exits_0_or_3(self, fuzz_corpus, data):
        doc = json.loads(fuzz_corpus.read_text())
        for _ in range(data.draw(st.integers(1, 2))):
            # mostly one image entry's fields, which reach the file system
            where = data.draw(st.sampled_from(["image"] * 4 + ["top", "vocabulary"]))
            if where == "top":
                key, target = data.draw(st.sampled_from(["vocabulary", "images"])), doc
            elif where == "image" and isinstance(doc.get("images"), list) and doc["images"]:
                target = doc["images"][data.draw(st.integers(0, len(doc["images"]) - 1))]
                key = data.draw(st.sampled_from(["id", "image", "superpixels", "contours",
                                                 "ground_truth", "tags"]))
            elif where == "vocabulary" and isinstance(doc.get("vocabulary"), list):
                doc["vocabulary"].append(data.draw(st.sampled_from(FUZZ_TEXT) | FUZZ_JSON))
                continue
            else:
                continue
            if not isinstance(target, dict):
                continue
            change = data.draw(st.sampled_from(["drop", "text", "json"]))
            if change == "drop":
                target.pop(key, None)
            else:
                target[key] = data.draw(st.sampled_from(FUZZ_TEXT) if change == "text"
                                        else FUZZ_JSON)
        manifest = fuzz_corpus.parent / "fuzzed.json"
        manifest.write_text(json.dumps(doc))
        out = fuzz_corpus.parent.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, err = run_quietly(["group", "--manifest", str(manifest), "--out", str(out)])
        assert code in (0, 3)
        assert err.count("\n") == (code != 0) and "Traceback" not in err

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_2_or_3(self, fuzz_corpus, data):
        config = {}
        for field in data.draw(st.lists(st.sampled_from(fields(pipeline.Config)), min_size=1,
                                        max_size=2)):
            wrong_type = data.draw(st.integers(0, 3)) == 3
            config[field.name] = data.draw(FUZZ_JSON if wrong_type
                                           else FUZZ_CONFIG_TYPED[field.type])
        if data.draw(st.integers(0, 9)) == 9:
            config["no_such_key"] = 1
        path = fuzz_corpus.parent.parent / "config.json"
        path.write_text(json.dumps(config))
        out = fuzz_corpus.parent.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, err = run_quietly(["run", "--manifest", str(fuzz_corpus), "--config", str(path),
                                 "--out", str(out)])
        assert code in (0, 2, 3)
        assert err.count("\n") == (code != 0) and "Traceback" not in err

    def test_no_area_floor_skips_regions_too_thin_for_hog(self, tmp_path):
        # with a_min 0, two images hold a salient region one pixel across;
        # selecting it ended in "data error: patch (1, 1) too small"
        manifest = io.save_corpus(synthgen.generate(FUZZ_SPEC, 2), tmp_path / "corpus")
        (tmp_path / "config.json").write_text(json.dumps({"a_min": 0.0}))
        code, err = run_quietly(["run", "--manifest", str(manifest),
                                 "--config", str(tmp_path / "config.json"),
                                 "--out", str(tmp_path / "out")])
        assert (code, err) == (0, "")

    def test_templates_that_fit_no_pyramid_level_are_counted(self, tmp_path):
        # a template's longer side is 8 cells, 7 blocks; the 48x40 images at
        # scale 1.25 hold 7x6 cells, 6x5 blocks, so no selected region can
        # train or place an exemplar
        manifest = io.save_corpus(synthgen.generate(FUZZ_SPEC, 2), tmp_path / "corpus")
        (tmp_path / "config.json").write_text(json.dumps({"a_min": 0.0}))
        assert cli.main(["run", "--manifest", str(manifest),
                         "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "run-meta.json").read_text())
        assert meta["phase1_exemplars_unplaceable"] > 0
        assert meta["phase1_exemplars_trained"] == meta["phase1_detections_kept"] == 0
        assert meta["phase2_exterior_edges"] == 0

    def test_source_image_without_a_fitting_level_draws_every_negative_elsewhere(
            self, tmp_path, monkeypatch):
        # the 48x40 image holds no 7-block window at any level, the 96x80 one
        # does, so the small image's selected regions train on negatives of
        # the large image alone
        small = synthgen.generate(FUZZ_SPEC, 1)
        large = synthgen.generate(replace(FUZZ_SPEC, height=96, width=80), 1)
        corpus = replace(small, images=(small.images[0],
                                        replace(large.images[0], id="img0001")))
        manifest = io.save_corpus(corpus, tmp_path / "corpus")
        (tmp_path / "config.json").write_text(json.dumps({"a_min": 0.0}))
        sources = []
        sample = esvm.sample_negatives

        def spy(corpus_images, image, *args):
            sources.append(image.id)
            return sample(corpus_images, image, *args)

        monkeypatch.setattr(esvm, "sample_negatives", spy)
        code, err = run_quietly(["run", "--manifest", str(manifest),
                                 "--config", str(tmp_path / "config.json"),
                                 "--out", str(tmp_path / "out")])
        assert (code, err) == (0, "")
        assert "img0000" in sources


class TestGroup:
    def test_group_outputs(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=2)
        out = tmp_path / "grouped"
        assert cli.main(["group", "--manifest", str(manifest), "--out", str(out)]) == 0
        corpus = io.load_corpus(manifest)
        for image in corpus.images:
            region_map = io.read_pgm(out / f"{image.id}.regions.pgm")
            assert region_map.shape == image.superpixel_map.shape
            doc = json.loads((out / f"{image.id}.group.json").read_text())
            assert doc["K"] == int(region_map.max()) + 1
            assert "objective" in doc and "mask_active" in doc


class TestPhasedCommands:
    def test_esvm_then_colabel(self, tmp_path):
        # a near-colour corpus whose Phase II energy moves with the exemplars'
        # source regions, through its exterior edge
        spec = Path(__file__).parent / "near_colour_spec.json"
        assert cli.main(["gen", "--spec", str(spec), "--n", "3", "--seed", "1",
                         "--out", str(tmp_path / "corpus")]) == 0
        manifest = tmp_path / "corpus" / "manifest.json"
        phase1 = tmp_path / "phase1"
        assert cli.main(["esvm", "--manifest", str(manifest),
                         "--out", str(phase1)]) == 0
        assert (phase1 / "exemplars.jsonl").exists()
        assert (phase1 / "propagations.json").exists()
        meta = json.loads((phase1 / "run-meta.json").read_text())
        assert set(meta) == {"config", "versions"} | PHASE1_KEYS
        exemplar_count = sum(1 for line in (phase1 / "exemplars.jsonl").open() if line.strip())
        assert meta["phase1_exemplars_trained"] + meta["phase1_exemplars_reused"] >= exemplar_count
        assert 0.0 <= meta["phase1_esvm_max_duality_gap"] <= 1e-6
        assert meta["phase1_multicut_lp_solves"] >= meta["phase1_multicuts_solved"]
        assert meta["phase1_multicuts_unproven"] == 0
        assert len(meta["phase1_images_changed"]) == meta["phase1_iterations"]
        assert meta["phase1_exemplars_unplaceable"] == 0
        propagation_count = len(json.loads((phase1 / "propagations.json").read_text()))
        assert meta["phase1_detections_kept"] >= propagation_count

        out = tmp_path / "labeled"
        assert cli.main(["colabel", "--manifest", str(manifest),
                         "--phase1", str(phase1), "--out", str(out)]) == 0
        energy = json.loads((out / "energy.json").read_text())
        assert np.isfinite(energy["total_energy"])
        # the Phase II counters, with the config and versions, and no timings
        meta = json.loads((out / "run-meta.json").read_text())
        assert set(meta) == {"config", "versions"} | PHASE2_KEYS
        assert meta["config"]["seed"] == 0 and "numpy" in meta["versions"]
        assert meta["versions"]["scipy"] == scipy.__version__
        assert meta["phase2_sweeps"] >= 1 and meta["phase2_overruled_vertices"] >= 0
        assert meta["phase2_exterior_edges"] > 0
        corpus = io.load_corpus(manifest)
        for image in corpus.images:
            labels = io.read_pgm(out / f"{image.id}.labels.pgm")
            assert set(np.unique(labels)) <= set(image.tags) | {0}

        # the two phased commands label as ``run`` does in one
        ran = tmp_path / "run"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(ran)]) == 0
        run_meta = json.loads((ran / "run-meta.json").read_text())
        assert energy["total_energy"] == run_meta["total_energy"]
        assert {key: run_meta[key] for key in meta if key.startswith("phase2_")} == \
            {key: meta[key] for key in meta if key.startswith("phase2_")}
        for image in corpus.images:
            name = f"{image.id}.labels.pgm"
            assert (out / name).read_bytes() == (ran / name).read_bytes()

    @pytest.mark.parametrize("config", [{}, {"lambda2": 1e200}], ids=["default", "lambda2-1e200"])
    def test_relative_esvm_duality_gap_is_small(self, tmp_path, config):
        # the absolute gap scales with C = lambda2 x count; over the energy it does not
        assert cli.main(["gen", "--n", "3", "--seed", "6", "--out", str(tmp_path / "c")]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert cli.main(["esvm", "--manifest", str(tmp_path / "c" / "manifest.json"),
                         "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "run-meta.json").read_text())
        assert meta["phase1_exemplars_trained"] > 0
        gap = meta["phase1_esvm_max_relative_duality_gap"]
        assert 0.0 <= gap <= 1e-9 and gap <= meta["phase1_esvm_max_duality_gap"]


# a well-formed exemplar of image 0's region 0 (a 2x2-cell template: 36 HOG
# weights and the bias, a 16x16 mask) and its propagation into image 1
EXEMPLAR = {"id": "e", "w": base64.b64encode(np.ones(37, dtype="<f8").tobytes()).decode(),
            "alpha": 1.0, "beta": 0.0, "source_region": ["img0000", 0], "template": [2, 2],
            "mask": {"shape": [16, 16], "runs": [0, 256]}}
PROPAGATION = {"exemplar": "e", "image": "img0001", "x": 0, "y": 0, "score": 0.5,
               "mask": {"shape": [4, 4], "runs": [0, 16]}}


@pytest.fixture(scope="module")
def grouped_corpus(tmp_path_factory):
    """A two-image corpus and the region maps ``group`` wrote for it."""
    root = tmp_path_factory.mktemp("grouped")
    manifest = write_tiny_corpus(root, n=2)
    assert run_quietly(["group", "--manifest", str(manifest), "--out", str(root / "p1")])[0] == 0
    return manifest, root / "p1"


class TestMalformedPhase1:
    def colabel(self, grouped_corpus, tmp_path, files):
        manifest, grouped = grouped_corpus
        phase1 = tmp_path / "phase1"
        shutil.copytree(grouped, phase1)
        for name, text in files.items():
            (phase1 / name).write_text(text)
        return run_quietly(["colabel", "--manifest", str(manifest), "--phase1", str(phase1),
                            "--out", str(tmp_path / "out")])

    def test_well_formed_records_are_read(self, grouped_corpus, tmp_path):
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps(EXEMPLAR) + "\n",
            "propagations.json": json.dumps([PROPAGATION])})
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("name, text", [
        ("exemplars.jsonl", json.dumps(EXEMPLAR)[:40] + "\n"),
        ("exemplars.jsonl", json.dumps({**EXEMPLAR, "w": "A"}) + "\n"),
        ("exemplars.jsonl", json.dumps({**EXEMPLAR, "alpha": [1]}) + "\n"),
        ("exemplars.jsonl", json.dumps({**EXEMPLAR, "source_region": [["img0000"], 0]}) + "\n"),
        ("exemplars.jsonl", "[1, 2]\n"),
        ("propagations.json", json.dumps([{"exemplar": "x"}])),
        ("propagations.json", json.dumps(PROPAGATION)),
        ("propagations.json", json.dumps([{**PROPAGATION, "x": "left"}])),
        ("propagations.json", json.dumps([{**PROPAGATION, "exemplar": ["e"]}])),
        ("propagations.json", json.dumps([{**PROPAGATION, "mask": {"shape": [16],
                                                                   "runs": [0, 16]}}])),
        ("propagations.json", json.dumps([{**PROPAGATION, "mask": {"shape": [4, 4],
                                                                   "runs": [0, 20, -4]}}])),
        ("propagations.json", "[{"),
        ("propagations.json", "[" * 100000 + "]" * 100000),
    ], ids=["exemplar-truncated", "exemplar-bad-base64", "exemplar-alpha-list",
            "exemplar-region-list", "exemplar-not-object", "propagation-missing-keys",
            "propagations-not-array", "propagation-x-str", "propagation-exemplar-list",
            "propagation-mask-1d", "propagation-negative-run", "propagations-truncated",
            "propagations-too-deep"])
    def test_malformed_record_is_3(self, grouped_corpus, tmp_path, name, text):
        code, err = self.colabel(grouped_corpus, tmp_path, {name: text})
        assert code == 3
        assert err.startswith(f"data error: {tmp_path / 'phase1' / name}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("source_region", ["img0000", "0"]), ("alpha", "nan"), ("beta", float("nan")),
        ("template", [2, 2.0]),
    ], ids=["region-index-str", "alpha-str-nan", "beta-nan", "template-float"])
    def test_wrongly_typed_exemplar_value_is_3(self, grouped_corpus, tmp_path, key, value):
        # each was coerced, or passed as it was, and colabel exited 0
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps({**EXEMPLAR, key: value}) + "\n",
            "propagations.json": json.dumps([PROPAGATION])})
        path = tmp_path / "phase1" / "exemplars.jsonl"
        assert code == 3
        assert err.startswith(f"data error: {path}: exemplar key {key!r} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("x", "0"), ("x", 0.7), ("x", True), ("score", "0.5"), ("score", None),
    ], ids=["x-str", "x-float", "x-bool", "score-str", "score-null"])
    def test_wrongly_typed_propagation_value_is_3(self, grouped_corpus, tmp_path, key, value):
        # each was coerced, or passed as it was, and colabel exited 0
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps(EXEMPLAR) + "\n",
            "propagations.json": json.dumps([{**PROPAGATION, key: value}])})
        path = tmp_path / "phase1" / "propagations.json"
        assert code == 3
        assert err.startswith(f"data error: {path}: propagation key {key!r} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -4), (1000, 0), (0, 1000)])
    def test_mask_outside_image_is_3(self, grouped_corpus, tmp_path, x, y):
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps(EXEMPLAR) + "\n",
            "propagations.json": json.dumps([{**PROPAGATION, "x": x, "y": y}])})
        path = tmp_path / "phase1" / "propagations.json"
        assert code == 3
        assert err.startswith(f"data error: {path}: img0001: a 4x4 mask placed at ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oversized_propagation_mask_is_3(self, grouped_corpus, tmp_path):
        # a 931 GiB mask: its shape is checked against the image before it is
        # built, which used to end in numpy's _ArrayMemoryError traceback
        mask = {"shape": [1000000, 1000000], "runs": [0, 1000000000000]}
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps(EXEMPLAR) + "\n",
            "propagations.json": json.dumps([{**PROPAGATION, "mask": mask}])})
        path = tmp_path / "phase1" / "propagations.json"
        assert code == 3
        assert err == (f"data error: {path}: img0001: a 1000000x1000000 mask placed at "
                       f"x=0, y=0 leaves the 128x96 image\n")

    @pytest.mark.parametrize("change, message", [
        ({"mask": {"shape": [2, 2], "runs": [0, 4]}},
         "a 2x2 mask is not the pixel grid of its 2x2-cell template"),
        ({"template": [1000000, 1000000], "mask": {"shape": [8000000, 8000000],
                                                   "runs": [0, 64000000000000]}},
         "37 weights do not fit a 1000000x1000000-cell template"),
        ({"template": [1, 2]}, "37 weights do not fit a 1x2-cell template"),
    ], ids=["mask-off-template", "huge-template", "template-under-2x2"])
    def test_exemplar_mask_off_its_template_is_3(self, grouped_corpus, tmp_path, change,
                                                 message):
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps({**EXEMPLAR, **change}) + "\n",
            "propagations.json": json.dumps([PROPAGATION])})
        path = tmp_path / "phase1" / "exemplars.jsonl"
        assert code == 3
        assert err == f"data error: {path}: exemplar 'e': {message}\n"

    @pytest.mark.parametrize("exemplar, propagation, message", [
        ({}, {"exemplar": "nope"}, "propagations.json: unknown exemplar 'nope'"),
        ({}, {"image": "no-such-image"}, "propagations.json: unknown image 'no-such-image'"),
        ({"source_region": ["img0000", 999]}, {},
         "exemplars.jsonl: exemplar 'e' has no source region 999 in image 'img0000'"),
        ({"source_region": ["no-such-image", 0]}, {},
         "exemplars.jsonl: exemplar 'e' has no source region 0 in image 'no-such-image'"),
    ], ids=["unknown-exemplar", "unknown-image", "region-index", "region-image"])
    def test_dangling_reference_is_3(self, grouped_corpus, tmp_path, exemplar, propagation,
                                     message):
        code, err = self.colabel(grouped_corpus, tmp_path, {
            "exemplars.jsonl": json.dumps({**EXEMPLAR, **exemplar}) + "\n",
            "propagations.json": json.dumps([PROPAGATION, {**PROPAGATION, **propagation}])})
        assert (code, err) == (3, f"data error: {tmp_path / 'phase1' / message}\n")

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2, 3)], ids=["fewer-labels", "reordered"])
    def test_train_manifest_of_another_vocabulary_is_3(self, grouped_corpus, tmp_path, order):
        manifest, grouped = grouped_corpus
        spec = synthgen.default_scene_spec(seed=5)
        spec = replace(spec, labels=tuple(spec.labels[i] for i in order))
        train = io.save_corpus(synthgen.generate(spec, 1), tmp_path / "train")
        code, err = run_quietly(["colabel", "--manifest", str(manifest), "--phase1",
                                 str(grouped), "--train-manifest", str(train),
                                 "--out", str(tmp_path / "out")])
        vocabulary = list(synthgen.vocabulary_of(spec))
        assert (code, err) == (3, f"data error: --train-manifest vocabulary {vocabulary} "
                                  "differs from the manifest's ['background', 'shirt', "
                                  "'pants', 'hat', 'bag']\n")

    def test_region_map_splitting_a_superpixel_is_3(self, grouped_corpus, tmp_path):
        manifest, grouped = grouped_corpus
        image = io.load_corpus(manifest).images[0]
        # superpixel 0 keeps its region but for one pixel
        region_map = io.read_pgm(grouped / f"{image.id}.regions.pgm")
        ys, xs = np.nonzero(image.superpixel_map == 0)
        region_map[ys[0], xs[0]] = region_map.max() + 1
        shutil.copytree(grouped, tmp_path / "phase1")
        io.write_pgm16(tmp_path / "phase1" / f"{image.id}.regions.pgm", region_map)
        code, err = run_quietly(["colabel", "--manifest", str(manifest),
                                 "--phase1", str(tmp_path / "phase1"),
                                 "--out", str(tmp_path / "out")])
        assert code == 3
        assert err.startswith("data error: ")
        assert "superpixel 0 lies in more than one region" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestRunAndEval:
    def test_run_eval_cycle(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=2, seed=11)
        out = tmp_path / "run"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0

        def not_json(constant):
            raise AssertionError(f"{constant} is not JSON")

        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=not_json)
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["aPA"] <= 1.0
        meta = json.loads((out / "run-meta.json").read_text())
        assert set(meta) == {"config", "versions", "label_model_max_duality_gap",
                             "total_energy", "note"} | PHASE1_KEYS | PHASE2_KEYS
        assert meta["config"]["seed"] == 0
        assert "numpy" in meta["versions"]
        # every pass groups both images, from the run's cache or by a solve
        assert (meta["phase1_multicuts_solved"] + meta["phase1_multicuts_reused"]
                == 2 * meta["phase1_iterations"])
        assert isinstance(meta["phase1_fixed_point"], bool)
        assert 0.0 <= meta["phase1_esvm_max_duality_gap"] <= 1e-6
        # solver counters over the multicuts the run solved, and the sweep cap
        assert meta["phase1_multicut_nodes"] >= meta["phase1_multicuts_solved"]
        assert meta["phase1_multicut_lp_solves"] >= meta["phase1_multicut_nodes"]
        assert meta["phase1_multicut_cuts"] >= 0
        assert meta["phase1_multicuts_unproven"] == 0
        assert meta["phase2_converged"] is True
        # the silent conditions: degenerate calibrations and truncated terms;
        # and how exactly the appearance machines were solved
        assert meta["phase1_esvm_degenerate_calibrations"] == 0
        assert meta["phase2_truncated_terms"] >= 0
        assert 0.0 <= meta["label_model_max_duality_gap"] <= 1e-9
        # the expansion's energy trajectory falls with every move to the total
        moves = meta["phase2_move_energies"]
        assert all(b < a for a, b in zip(moves, moves[1:]))
        assert moves == [] or moves[-1] == meta["total_energy"]
        # changed images per Phase I iteration: both images first, none at a fixed point
        changed = meta["phase1_images_changed"]
        assert len(changed) == meta["phase1_iterations"] and changed[0] == 2
        assert (changed[-1] == 0) == meta["phase1_fixed_point"]
        # an orbit has a length and images that cycle in it; a fixed point neither
        assert (meta["phase1_orbit_length"] > 0) == bool(meta["phase1_cycling_images"])
        assert not (meta["phase1_fixed_point"] and meta["phase1_orbit_length"])

        rc = cli.main(["eval", "--manifest", str(manifest), "--pred", str(out),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 0
        again = json.loads((tmp_path / "m.json").read_text())
        assert again["aPA"] == pytest.approx(metrics["aPA"])

    def test_run_deterministic_bytes(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=2, seed=11)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out_a),
                         "--seed", "5"]) == 0
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out_b),
                         "--seed", "5"]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCv:
    def test_cv_outputs(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=4, seed=15)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold_count": 2, "seed": 15}))
        out = tmp_path / "cv"
        assert cli.main(["cv", "--manifest", str(manifest), "--config", str(cfg),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert len(doc["folds"]) == 2
        assert 0.0 <= doc["aPA_mean"] <= 1.0

    def test_run_meta_has_fold_counters_and_same_bytes(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=4, seed=15)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold_count": 2, "seed": 15}))
        metas = []
        for name in ("a", "b"):
            assert cli.main(["cv", "--manifest", str(manifest), "--config", str(cfg),
                             "--out", str(tmp_path / name)]) == 0
            metas.append((tmp_path / name / "run-meta.json").read_bytes())
        assert metas[0] == metas[1]
        folds = json.loads(metas[0])["folds"]
        assert [f["fold"] for f in folds] == [0, 1]
        metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())["folds"]
        for fold, summary in zip(folds, metrics):
            assert set(fold) == \
                {"fold", "label_model_max_duality_gap"} | PHASE1_KEYS | PHASE2_KEYS
            assert fold["phase1_iterations"] == summary["phase1_iterations"]
            assert fold["phase1_converged"] == summary["phase1_converged"]
            assert len(fold["phase1_images_changed"]) == fold["phase1_iterations"]
            assert fold["phase1_multicuts_solved"] >= len(summary["test_ids"])
            assert fold["phase2_sweeps"] >= 1

    def test_missing_training_ground_truth_is_3_before_any_multicut(self, tmp_path, capsys,
                                                                    monkeypatch):
        manifest = write_tiny_corpus(tmp_path, n=4, seed=15)
        doc = json.loads(manifest.read_text())
        ids = [entry["id"] for entry in doc["images"]]
        # an image fold 0 tests: the serial CV would solve fold 0 before reading it
        missing = min(i for i, fold in pipeline.fold_assignment(ids, 2, 15).items() if fold == 0)
        for entry in doc["images"]:
            if entry["id"] == missing:
                entry["ground_truth"] = None
        manifest.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold_count": 2, "seed": 15}))
        solved = []
        solve = grouping.solve_multicut

        def counted(*args):
            solved.append(args)
            return solve(*args)

        monkeypatch.setattr(grouping, "solve_multicut", counted)
        rc = cli.main(["cv", "--manifest", str(manifest), "--config", str(cfg),
                       "--out", str(tmp_path / "cv")])
        assert rc == 3
        assert_one_line_error(capsys, f"data error: {missing}: ground truth required")
        assert solved == []

    def test_one_fold_is_2(self, tmp_path, capsys):
        manifest = write_tiny_corpus(tmp_path, n=2, seed=15)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold_count": 1}))
        rc = cli.main(["cv", "--manifest", str(manifest), "--config", str(cfg),
                       "--out", str(tmp_path / "cv")])
        assert rc == 2
        assert_one_line_error(capsys, "configuration error: iteration caps must be >= 1 and "
                                      "fold_count >= 2")
