import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coparse import io, synthgen
from coparse.errors import DataError

# valid files that the fuzz property truncates and mutates: (reader, bytes)
PNM_FILES = {
    "ppm": (io.read_ppm, b"P6\n# comment\n3 2\n255\n" + bytes(range(18))),
    "pgm8": (io.read_pgm, b"P5\n3 2\n255\n" + bytes(range(6))),
    "pgm16": (io.read_pgm, b"P5 3\t2 65535\r" + bytes(range(12))),
}


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        io.write_ppm(path, pixels)
        assert (io.read_ppm(path) == pixels).all()

    def test_pgm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 65536, size=(4, 6))
        path = tmp_path / "x.pgm"
        io.write_pgm16(path, values)
        assert (io.read_pgm(path) == values).all()

    def test_pgm16_is_big_endian(self, tmp_path):
        path = tmp_path / "x.pgm"
        io.write_pgm16(path, np.array([[0x0102]]))
        raw = path.read_bytes()
        assert raw.endswith(b"\x01\x02")

    def test_pgm8_round_trip(self, tmp_path):
        values = np.array([[0, 255], [255, 0]])
        path = tmp_path / "x.pgm"
        io.write_pgm8(path, values)
        assert (io.read_pgm(path) == values).all()

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
        assert io.read_pgm(path).tolist() == [[7, 9]]

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\nabc")
        with pytest.raises(DataError):
            io.read_ppm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DataError):
            io.read_ppm(path)

    @settings(derandomize=True, deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(sorted(PNM_FILES)), data=st.data())
    def test_fuzzed_bytes_read_or_raise_data_error(self, tmp_path, kind, data):
        reader, valid = PNM_FILES[kind]
        raw = bytearray(valid[:data.draw(st.integers(0, len(valid)), label="keep")])
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(valid)), st.binary(max_size=6),
                                             st.booleans()), max_size=3), label="edits")
        for pos, chunk, insert in edits:
            pos = min(pos, len(raw))
            raw[pos:pos if insert else pos + len(chunk)] = chunk
        path = tmp_path / "fuzz.pnm"
        path.write_bytes(bytes(raw))
        try:
            out = reader(path)
        except DataError:
            return
        assert isinstance(out, np.ndarray)

    def test_value_range_enforced(self, tmp_path):
        with pytest.raises(DataError):
            io.write_pgm16(tmp_path / "o.pgm", np.array([[70000]]))


class TestManifest:
    def test_corpus_round_trip(self, tmp_path):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=3), 2)
        manifest = io.save_corpus(corpus, tmp_path)
        loaded = io.load_corpus(manifest)
        assert loaded.vocabulary == corpus.vocabulary
        assert len(loaded.images) == 2
        for a, b in zip(corpus.images, loaded.images):
            assert a.id == b.id
            assert (a.pixels == b.pixels).all()
            assert (a.superpixel_map == b.superpixel_map).all()
            assert (a.contour_map == b.contour_map).all()
            assert (a.ground_truth == b.ground_truth).all()
            assert a.tags == b.tags

    def test_vocabulary_background_first_enforced(self, tmp_path):
        (tmp_path / "m.json").write_text(
            '{"vocabulary": ["shirt", "background"], "images": []}')
        with pytest.raises(DataError):
            io.load_corpus(tmp_path / "m.json")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            io.load_corpus(tmp_path / "nope.json")

    def test_unknown_tag_rejected(self, tmp_path):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=3), 1)
        manifest = io.save_corpus(corpus, tmp_path)
        import json

        doc = json.loads(manifest.read_text())
        doc["images"][0]["tags"] = ["not-a-label"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            io.load_corpus(manifest)

    # "sub/img" and an absolute id are among the CLI's malformed-manifest cases
    @pytest.mark.parametrize("image_id", ["", ".", "..", "a\\b"])
    def test_image_id_must_be_plain_file_name(self, tmp_path, image_id):
        corpus = synthgen.generate(synthgen.default_scene_spec(seed=3), 1)
        manifest = io.save_corpus(corpus, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["images"][0]["id"] = image_id
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="plain file name"):
            io.load_corpus(manifest)

    def test_empty_corpus_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text(
            '{"vocabulary": ["background"], "images": []}')
        with pytest.raises(DataError):
            io.load_corpus(tmp_path / "m.json")
