"""Corpus serialization: binary PPM/PGM rasters and the JSON manifest.

Images are 8-bit binary PPM (P6). Superpixel maps, region maps and label
maps are 16-bit binary PGM (P5) with big-endian samples. Contour maps are
8-bit PGM holding 0/255. The manifest is one JSON document listing, per
image, the four raster paths and the tag list, plus the ordered label
vocabulary (index 0 must be "background").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ImageRecord, validate_image_record
from .errors import CoparseError, DataError, MalformedInputError


@dataclass(frozen=True)
class Corpus:
    vocabulary: tuple[str, ...]
    images: tuple[ImageRecord, ...]

    def image_by_id(self, image_id: str) -> ImageRecord:
        for rec in self.images:
            if rec.id == image_id:
                return rec
        raise DataError(f"no image with id {image_id!r}")


def read_json(path, error: type[CoparseError], what: str):
    """The JSON document in the UTF-8 file ``path``; a file that cannot be
    read or is not UTF-8 JSON raises ``error`` naming ``what`` and ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# PNM readers/writers
# ---------------------------------------------------------------------------

def _read_pnm_header(data: bytes, expected_magic: bytes):
    """Parse magic, width, height, maxval; return (w, h, maxval, offset)."""
    if not data.startswith(expected_magic):
        raise DataError(f"expected {expected_magic.decode()} file")
    pos = len(expected_magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DataError("truncated PNM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise DataError("truncated PNM comment")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            token = data[pos:end]
            if not token.isdigit():
                raise DataError(f"bad PNM header token {token!r}")
            fields.append(int(token))
            pos = end
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise DataError("missing raster separator in PNM header")
    pos += 1
    w, h, maxval = fields
    if w <= 0 or h <= 0 or not 0 < maxval < 65536:
        raise DataError("bad PNM dimensions or maxval")
    return w, h, maxval, pos


def read_ppm(path) -> np.ndarray:
    data = _read_bytes(path)
    w, h, maxval, pos = _read_pnm_header(data, b"P6")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PPM supported")
    if len(data) - pos < h * w * 3:
        raise DataError(f"{path}: truncated PPM raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=h * w * 3, offset=pos)
    return raster.reshape(h, w, 3).copy()


def write_ppm(path, pixels: np.ndarray) -> None:
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w = px.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(px.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read P5; 16-bit samples are big-endian per the PGM standard."""
    data = _read_bytes(path)
    w, h, maxval, pos = _read_pnm_header(data, b"P5")
    sample_bytes = 2 if maxval > 255 else 1
    if len(data) - pos < h * w * sample_bytes:
        raise DataError(f"{path}: truncated PGM raster")
    dtype = ">u2" if maxval > 255 else np.uint8
    raster = np.frombuffer(data, dtype=dtype, count=h * w, offset=pos)
    return raster.reshape(h, w).astype(np.int64)


def write_pgm16(path, values: np.ndarray) -> None:
    arr = np.asarray(values)
    if arr.min() < 0 or arr.max() > 65535:
        raise DataError("PGM16 values out of range")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode())
        f.write(arr.astype(">u2").tobytes())


def write_pgm8(path, values: np.ndarray) -> None:
    arr = np.asarray(values)
    if arr.min() < 0 or arr.max() > 255:
        raise DataError("PGM8 values out of range")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(arr.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

MAX_ID_BYTES = 200   # <id>.<kind>.pgm stays within a 255-byte file name


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _path_bytes(text: str) -> bytes:
    """``text`` as a file-system path; it holds a NUL if no file can have that name."""
    try:
        return os.fsencode(text)
    except UnicodeEncodeError:
        return b"\0"


def _check_manifest_shape(doc: dict) -> None:
    """JSON types of the manifest fields; raise DataError naming the entry."""
    if not _is_str_list(doc["vocabulary"]):
        raise DataError("manifest vocabulary must be a list of strings")
    if not isinstance(doc["images"], list):
        raise DataError("manifest images must be a list")
    seen_ids = set()
    for i, entry in enumerate(doc["images"]):
        if not isinstance(entry, dict):
            raise DataError(f"manifest image {i} must be an object")
        name = f"manifest image {i}"
        if isinstance(entry.get("id"), str):
            name += f" ({entry['id']!r})"
        for key in ("id", "image", "superpixels", "contours"):
            if not isinstance(entry.get(key), str):
                raise DataError(f"{name}: {key!r} must be a string")
        if not _is_str_list(entry.get("tags")):
            raise DataError(f"{name}: 'tags' must be a list of strings")
        if not isinstance(entry.get("ground_truth"), (str, type(None))):
            raise DataError(f"{name}: 'ground_truth' must be a string or null")
        for key in ("id", "image", "superpixels", "contours", "ground_truth"):
            if b"\0" in _path_bytes(entry.get(key) or ""):
                raise DataError(f"{name}: {key!r} holds a NUL or unencodable character")
        if entry["id"] in ("", ".", "..") or any(c in entry["id"] for c in "/\\"):
            raise DataError(f"{name}: 'id' must be a plain file name")
        if len(_path_bytes(entry["id"])) > MAX_ID_BYTES:
            raise DataError(f"{name}: 'id' must be at most {MAX_ID_BYTES} bytes long")
        if entry["id"] in seen_ids:
            raise DataError(f"{name}: duplicate image id")
        seen_ids.add(entry["id"])


def load_corpus(manifest_path) -> Corpus:
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path, DataError, "manifest")
    if not isinstance(doc, dict) or "vocabulary" not in doc or "images" not in doc:
        raise DataError(f"manifest {manifest_path} missing vocabulary/images")
    _check_manifest_shape(doc)
    vocabulary = tuple(doc["vocabulary"])
    if not vocabulary or vocabulary[0] != "background":
        raise DataError("vocabulary[0] must be 'background'")
    if len(set(vocabulary)) != len(vocabulary):
        raise DataError("vocabulary has duplicate labels")
    base = manifest_path.parent
    images = []
    for entry in doc["images"]:
        image_id = entry["id"]
        pixels = read_ppm(base / entry["image"])
        spmap = read_pgm(base / entry["superpixels"])
        contours = read_pgm(base / entry["contours"]) > 0
        gt = None
        if entry.get("ground_truth"):
            gt = read_pgm(base / entry["ground_truth"])
        tags = []
        for name in entry["tags"]:
            if name not in vocabulary:
                raise DataError(f"{image_id}: tag {name!r} not in vocabulary")
            tags.append(vocabulary.index(name))
        rec = ImageRecord(
            id=image_id,
            pixels=pixels,
            tags=frozenset(tags),
            superpixel_map=spmap,
            contour_map=contours,
            ground_truth=gt,
        )
        try:
            validate_image_record(rec, vocabulary_size=len(vocabulary))
        except MalformedInputError as exc:
            raise DataError(str(exc)) from exc
        images.append(rec)
    if not images:
        raise DataError("manifest lists no images")
    return Corpus(vocabulary=vocabulary, images=tuple(images))


def save_corpus(corpus: Corpus, out_dir) -> Path:
    """Write every raster plus manifest.json into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in corpus.images:
        paths = {
            "image": f"{rec.id}.ppm",
            "superpixels": f"{rec.id}.sp.pgm",
            "contours": f"{rec.id}.contour.pgm",
        }
        write_ppm(out / paths["image"], rec.pixels)
        write_pgm16(out / paths["superpixels"], rec.superpixel_map)
        write_pgm8(out / paths["contours"], rec.contour_map.astype(np.uint8) * 255)
        gt_path = None
        if rec.ground_truth is not None:
            gt_path = f"{rec.id}.gt.pgm"
            write_pgm16(out / gt_path, rec.ground_truth)
        entries.append({
            "id": rec.id,
            **paths,
            "ground_truth": gt_path,
            "tags": [corpus.vocabulary[t] for t in sorted(rec.tags)],
        })
    manifest = {"vocabulary": list(corpus.vocabulary), "images": entries}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
