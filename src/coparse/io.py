"""Corpus serialization: binary PPM/PGM rasters and the JSON manifest, and
the field-type table every JSON document coparse reads is checked against.

Images are 8-bit binary PPM (P6). Superpixel maps, region maps and label
maps are 16-bit binary PGM (P5) with big-endian samples. Contour maps are
8-bit PGM holding 0/255. The manifest is one JSON document listing, per
image, the four raster paths and the tag list, plus the ordered label
vocabulary (index 0 must be "background").
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .core import ImageRecord, validate_image_record
from .errors import CoparseError, ConfigError, DataError, MalformedInputError


@dataclass(frozen=True)
class Corpus:
    vocabulary: tuple[str, ...]
    images: tuple[ImageRecord, ...]


def read_json(path, error: type[CoparseError], what: str):
    """The JSON document in the UTF-8 file ``path``; a file that cannot be
    read or is not UTF-8 JSON raises ``error`` naming ``what`` and ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON field types
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return math.isfinite(value) if isinstance(value, float) else _is_int(value)


def _is_list(*items):
    """Check for a list of one item per check in ``items`` or, when ``items``
    ends in ``...``, of any number of items its first check accepts."""
    if items[-1] is ...:
        return lambda v: isinstance(v, (list, tuple)) and all(items[0](x) for x in v)
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == len(items)
                      and all(accepts(x) for accepts, x in zip(items, v)))


_IS_STR, _IS_OBJECT = (lambda v: isinstance(v, str)), (lambda v: isinstance(v, dict))

# Field type -> (check on the JSON value, what the message asks for). The
# annotations of pipeline.Config, synthgen.SceneSpec and synthgen.LabelSpec,
# and the field tables of the manifest and the Phase I records, are its keys.
# Ints pass for floats unchanged, so run-meta.json echoes them as given.
JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (_IS_STR, "a string"),
    "str | None": (lambda v: v is None or _IS_STR(v), "a string or null"),
    "dict": (_IS_OBJECT, "an object"),
    "tuple[dict, ...]": (_is_list(_IS_OBJECT, ...), "a list of objects"),
    "tuple[LabelSpec, ...]": (_is_list(_IS_OBJECT, ...), "a list of objects"),
    "tuple[float, ...]": (_is_list(_is_number, ...), "a list of finite numbers"),
    "tuple[float, float]": (_is_list(_is_number, _is_number), "a list of 2 finite numbers"),
    "tuple[int, ...]": (_is_list(_is_int, ...), "a list of integers"),
    "tuple[int, int]": (_is_list(_is_int, _is_int), "a list of 2 integers"),
    "tuple[int, int, int]": (_is_list(_is_int, _is_int, _is_int), "a list of 3 integers"),
    "tuple[str, int]": (_is_list(_IS_STR, _is_int), "a list of a string and an integer"),
    "tuple[str, ...]": (_is_list(_IS_STR, ...), "a list of strings"),
}


def check_json_type(value, field_type: str, error: type[CoparseError], what: str):
    """``value``, a list as a tuple, if it fits ``field_type`` in JSON_TYPES;
    else raise ``error`` naming ``what``."""
    accepts, expected = JSON_TYPES[field_type]
    if not accepts(value):
        raise error(f"{what} must be {expected}, got {reprlib.repr(value)}")
    return tuple(value) if isinstance(value, list) else value


def check_json_types(doc, types: dict[str, str], error: type[CoparseError], what: str,
                     required=None) -> dict:
    """``check_json_type`` of each value of the JSON object ``doc`` under a key
    of ``types``, by key; other keys are ignored. Raise ``error`` naming
    ``what`` if ``doc`` lacks a key of ``required`` (default: of ``types``)."""
    check_json_type(doc, "dict", error, what)
    for key in types if required is None else required:
        if key not in doc:
            raise error(f"{what} lacks key {key!r}")
    return {key: check_json_type(doc[key], types[key], error, f"{what} key {key!r}")
            for key in types if key in doc}


def dataclass_from_json(cls, doc, what: str, **decode):
    """The ``cls`` dataclass from the JSON object ``doc``, which must give every
    field without a default, no other key, and values that fit the field
    annotations; ``decode[name]`` maps field ``name``'s checked value. Raise
    ConfigError naming ``what`` otherwise, or if ``cls`` rejects a value."""
    types = {f.name: f.type for f in fields(cls)}
    values = check_json_types(doc, types, ConfigError, what, required=[
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING])
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"bad {what}: unknown keys {unknown}")
    try:
        return cls(**{key: decode[key](value) if key in decode else value
                      for key, value in values.items()})
    except MalformedInputError as exc:
        raise ConfigError(f"{what} value out of range: {exc}") from exc


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


_MANIFEST_TYPES = {"vocabulary": "tuple[str, ...]", "images": "tuple[dict, ...]"}
_IMAGE_TYPES = {"id": "str", "image": "str", "superpixels": "str", "contours": "str",
                "tags": "tuple[str, ...]", "ground_truth": "str | None"}


def _path_bytes(text: str) -> bytes:
    """``text`` as a file-system path; it holds a NUL if no file can have that name."""
    try:
        return os.fsencode(text)
    except UnicodeEncodeError:
        return b"\0"


def load_corpus(manifest_path) -> Corpus:
    manifest_path = Path(manifest_path)
    what = f"manifest {manifest_path}"
    manifest = check_json_types(read_json(manifest_path, DataError, "manifest"),
                                _MANIFEST_TYPES, DataError, what)
    vocabulary = manifest["vocabulary"]
    if not vocabulary or vocabulary[0] != "background":
        raise DataError("vocabulary[0] must be 'background'")
    if len(set(vocabulary)) != len(vocabulary):
        raise DataError("vocabulary has duplicate labels")
    base = manifest_path.parent
    images, seen_ids = [], set()
    for i, entry in enumerate(manifest["images"]):
        entry = check_json_types(entry, _IMAGE_TYPES, DataError, f"{what} image {i}",
                                 required=[key for key in _IMAGE_TYPES if key != "ground_truth"])
        image_id = entry["id"]
        name = f"{what} image {i} ({image_id!r})"
        for key in ("id", "image", "superpixels", "contours", "ground_truth"):
            if b"\0" in _path_bytes(entry.get(key) or ""):
                raise DataError(f"{name}: {key!r} holds a NUL or unencodable character")
        if image_id in ("", ".", "..") or any(c in image_id for c in "/\\"):
            raise DataError(f"{name}: 'id' must be a plain file name")
        if len(_path_bytes(image_id)) > MAX_ID_BYTES:
            raise DataError(f"{name}: 'id' must be at most {MAX_ID_BYTES} bytes long")
        if image_id in seen_ids:
            raise DataError(f"{name}: duplicate image id")
        seen_ids.add(image_id)
        pixels = read_ppm(base / entry["image"])
        spmap = read_pgm(base / entry["superpixels"])
        contours = read_pgm(base / entry["contours"]) > 0
        gt = None
        if entry.get("ground_truth"):
            gt = read_pgm(base / entry["ground_truth"])
        tags = []
        for label in entry["tags"]:
            if label not in vocabulary:
                raise DataError(f"{image_id}: tag {label!r} not in vocabulary")
            tags.append(vocabulary.index(label))
        rec = ImageRecord(
            id=image_id,
            pixels=pixels,
            tags=frozenset(tags),
            superpixel_map=spmap,
            contour_map=contours,
            ground_truth=gt,
        )
        validate_image_record(rec, vocabulary_size=len(vocabulary))   # a DataError
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
