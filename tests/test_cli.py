import json
from types import SimpleNamespace

import numpy as np
import pytest

from coparse import cli, grouping, io, kernels, synthgen


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
        {"lambda1": float("nan")}, {"seed": -1},
    ], ids=["k_top-str", "scales-int", "theta-null", "theta-str", "seed-float", "lambda1-nan",
            "seed-negative"])
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
    ], ids=["no-superpixels", "images-str", "images-int-entry", "tags-int", "vocabulary-int",
            "duplicate-id", "id-subdir", "id-absolute"])
    def test_malformed_manifest_is_3(self, tmp_path, capsys, edit):
        manifest = write_tiny_corpus(tmp_path, n=2)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert_one_line_error(capsys, "data error: ")

    def test_lp_failure_is_1(self, tmp_path, capsys, monkeypatch):
        manifest = write_tiny_corpus(tmp_path, n=1)
        monkeypatch.setattr(grouping, "linprog", lambda *a, **k: SimpleNamespace(status=4))
        rc = cli.main(["group", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert_one_line_error(capsys, "error: LP solver failed")

    def test_flow_cut_mismatch_is_1(self, tmp_path, capsys, monkeypatch):
        manifest = write_tiny_corpus(tmp_path, n=1)
        phase1 = tmp_path / "phase1"
        assert cli.main(["group", "--manifest", str(manifest), "--out", str(phase1)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(kernels, "dinic", lambda *args: -1.0)
        rc = cli.main(["colabel", "--manifest", str(manifest), "--phase1", str(phase1),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert_one_line_error(capsys, "error: flow/cut mismatch")


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
        manifest = write_tiny_corpus(tmp_path, n=2, seed=9)
        phase1 = tmp_path / "phase1"
        assert cli.main(["esvm", "--manifest", str(manifest),
                         "--out", str(phase1)]) == 0
        assert (phase1 / "exemplars.jsonl").exists()
        assert (phase1 / "propagations.json").exists()
        meta = json.loads((phase1 / "run-meta.json").read_text())
        exemplar_count = sum(1 for line in (phase1 / "exemplars.jsonl").open() if line.strip())
        assert meta["phase1_exemplars_trained"] + meta["phase1_exemplars_reused"] >= exemplar_count
        assert 0.0 <= meta["phase1_esvm_max_duality_gap"] <= 1e-6

        out = tmp_path / "labeled"
        assert cli.main(["colabel", "--manifest", str(manifest),
                         "--phase1", str(phase1), "--out", str(out)]) == 0
        energy = json.loads((out / "energy.json").read_text())
        assert np.isfinite(energy["total_energy"])
        corpus = io.load_corpus(manifest)
        for image in corpus.images:
            labels = io.read_pgm(out / f"{image.id}.labels.pgm")
            assert set(np.unique(labels)) <= set(image.tags) | {0}


class TestRunAndEval:
    def test_run_eval_cycle(self, tmp_path):
        manifest = write_tiny_corpus(tmp_path, n=2, seed=11)
        out = tmp_path / "run"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["aPA"] <= 1.0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["config"]["seed"] == 0
        assert "numpy" in meta["versions"]
        # every pass groups both images, from the run's cache or by a solve
        assert (meta["phase1_multicuts_solved"] + meta["phase1_multicuts_reused"]
                == 2 * meta["phase1_iterations"])
        assert isinstance(meta["phase1_fixed_point"], bool)
        assert 0.0 <= meta["phase1_esvm_max_duality_gap"] <= 1e-6

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
