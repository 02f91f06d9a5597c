"""Command line entry point.

Subcommands: gen, group, esvm, colabel, run, eval, cv. Exit codes: 0 on
success, 1 for solver errors, 2 for configuration errors, 3 for data errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, esvm, grouping, io, pipeline, synthgen
from .core import Partition, Region, regions_of
from .errors import ConfigError, CoparseError, DataError


def _dump_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _inputs(args) -> tuple[io.Corpus, pipeline.Config, Path]:
    """A pipeline command's corpus, its config and its output directory, created."""
    corpus = io.load_corpus(args.manifest)
    config = pipeline.Config() if args.config is None else pipeline.Config.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return corpus, config, out


@functools.cache
def _scipy_version() -> str:
    """scipy's version from its installed metadata, read once per process:
    the package never imports ``scipy`` itself, and ``importlib.metadata``
    (milliseconds to import, and each lookup scans the path) waits for the
    first run-meta.json."""
    from importlib import metadata
    return metadata.version("scipy")


def _run_meta(config: pipeline.Config, extra: dict) -> dict:
    return {
        "config": config.to_dict(),
        "versions": {
            "coparse": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
        **extra,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.spec is None:
        spec = synthgen.default_scene_spec()
    else:
        spec = io.dataclass_from_json(
            synthgen.SceneSpec, io.read_json(args.spec, ConfigError, "scene spec"), "scene spec",
            labels=lambda labels: tuple(io.dataclass_from_json(synthgen.LabelSpec, label,
                                                               "scene spec") for label in labels))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if spec.seed < 0:
        raise ConfigError("seed must be >= 0")
    corpus = synthgen.generate(spec, args.n)
    manifest = io.save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.images)} images to {manifest}")
    return 0


def cmd_group(args) -> int:
    corpus, config, out = _inputs(args)
    for image in corpus.images:
        instance = grouping.instance_for_image(image, [], grouping.superpixel_graph(image))
        solution = grouping.solve_multicut(instance, config.theta)
        region_map = solution.partition.assignment[image.superpixel_map]
        io.write_pgm16(out / f"{image.id}.regions.pgm", region_map)
        _dump_json(out / f"{image.id}.group.json", {
            "objective": solution.objective,
            "K": solution.partition.k,
            "mask_active": list(solution.mask_active),
        })
        print(f"{image.id}: K={solution.partition.k} objective={solution.objective:.6f}")
    return 0


def cmd_esvm(args) -> int:
    corpus, config, out = _inputs(args)
    phase1 = pipeline.run_cosegmentation(corpus, config, pipeline.build_maps(corpus.images))
    with open(out / "exemplars.jsonl", "w") as f:
        for exemplar in phase1.exemplars:
            f.write(json.dumps(esvm.exemplar_to_json(exemplar), sort_keys=True) + "\n")
    _dump_json(out / "propagations.json",
               [esvm.propagation_to_json(p) for p in phase1.propagations])
    for image in corpus.images:
        io.write_pgm16(out / f"{image.id}.regions.pgm", phase1.regions[image.id][0].region_map)
    _dump_json(out / "run-meta.json", _run_meta(config, phase1.counters))
    print(f"phase I: {len(phase1.exemplars)} exemplars, "
          f"{len(phase1.propagations)} propagations, "
          f"{phase1.iteration_count} iterations")
    return 0


def _regions_from_dir(corpus, phase1_dir: Path) -> dict[str, list[Region]]:
    """Each image's regions, from the region map ``esvm`` wrote for it."""
    regions = {}
    for image in corpus.images:
        path = phase1_dir / f"{image.id}.regions.pgm"
        region_map = io.read_pgm(path)
        sp = image.superpixel_map
        if region_map.shape != sp.shape:
            raise DataError(f"{path}: region map shape mismatch")
        # a superpixel's assignment is its region index, checked constant over it
        assignment = np.empty(int(sp.max()) + 1, dtype=np.int64)
        assignment[sp] = region_map
        split = sp[assignment[sp] != region_map]
        if split.size:
            raise DataError(f"{path}: superpixel {int(split[0])} lies in more than one region")
        regions[image.id] = regions_of(image, Partition.from_assignment(assignment))
    return regions


def _phase1_records(phase1_dir: Path, corpus) -> list[list]:
    """The exemplars and propagations ``esvm`` wrote (none for a missing
    file), each propagation placed inside a ``corpus`` image; a malformed
    file raises DataError naming it."""
    shapes = {image.id: image.superpixel_map.shape for image in corpus.images}
    loaded = []
    for name, parse, from_json in (
            ("exemplars.jsonl", lambda text: [json.loads(line) for line in text.splitlines()
                                              if line.strip()], esvm.exemplar_from_json),
            ("propagations.json", json.loads,
             lambda doc: esvm.propagation_from_json(doc, shapes))):
        path = phase1_dir / name
        try:
            docs = parse(path.read_text()) if path.exists() else []
            loaded.append([from_json(doc) for doc in io.check_json_type(
                docs, "tuple[dict, ...]", DataError, "the file")])
        except (OSError, ValueError, RecursionError, OverflowError, DataError) as exc:
            # ValueError: not UTF-8, not JSON or not base64; OverflowError: a
            # mask run too long for numpy
            raise DataError(f"{path}: {exc}") from exc
    return loaded


def cmd_colabel(args) -> int:
    corpus, config, out = _inputs(args)
    phase1_dir = Path(args.phase1)
    regions = _regions_from_dir(corpus, phase1_dir)
    exemplars, propagations = _phase1_records(phase1_dir, corpus)
    for exemplar in exemplars:
        image_id, index = exemplar.source_region
        if image_id not in regions or not 0 <= index < len(regions[image_id]):
            raise DataError(f"{phase1_dir / 'exemplars.jsonl'}: exemplar {exemplar.id!r} has "
                            f"no source region {index} in image {image_id!r}")
    exemplar_ids = {exemplar.id for exemplar in exemplars}
    for prop in propagations:
        if prop.source_exemplar not in exemplar_ids:
            raise DataError(f"{phase1_dir / 'propagations.json'}: unknown exemplar "
                            f"{prop.source_exemplar!r}")
    maps = pipeline.build_maps(corpus.images)
    if args.train_manifest is None:
        train_corpus, train_maps = corpus, maps
    else:
        train_corpus = io.load_corpus(args.train_manifest)
        if train_corpus.vocabulary != corpus.vocabulary:
            raise DataError(f"--train-manifest vocabulary {list(train_corpus.vocabulary)} "
                            f"differs from the manifest's {list(corpus.vocabulary)}")
        train_maps = pipeline.build_maps(train_corpus.images)
    model = pipeline.train_label_model(
        train_corpus.vocabulary,
        [pipeline.ground_truth_rows(r, train_maps[r.id]) for r in train_corpus.images])
    phase2 = pipeline.run_colabeling(corpus, regions, exemplars, propagations, model, config,
                                     maps)
    for image_id, label_map in sorted(phase2.label_maps.items()):
        io.write_pgm16(out / f"{image_id}.labels.pgm", label_map)
    _dump_json(out / "energy.json", {
        "total_energy": phase2.total_energy,
        "per_image_energy": dict(sorted(phase2.per_image_energy.items())),
    })
    _dump_json(out / "run-meta.json", _run_meta(config, phase2.counters))
    print(f"co-labeling energy {phase2.total_energy:.6f} over {len(phase2.label_maps)} images")
    return 0


def cmd_run(args) -> int:
    corpus, config, out = _inputs(args)
    labeled = [rec for rec in corpus.images if rec.ground_truth is not None]
    if not labeled:
        raise DataError("run requires ground truth for label-model training")
    maps = pipeline.build_maps(corpus.images)
    model = pipeline.train_label_model(
        corpus.vocabulary, [pipeline.ground_truth_rows(rec, maps[rec.id]) for rec in labeled])
    phase1 = pipeline.run_cosegmentation(corpus, config, maps)
    phase2 = pipeline.run_colabeling(corpus, phase1.regions, phase1.exemplars,
                                     phase1.propagations, model, config, maps)
    for image_id, label_map in sorted(phase2.label_maps.items()):
        io.write_pgm16(out / f"{image_id}.labels.pgm", label_map)
    metrics = pipeline.evaluate(phase2.label_maps, replace(corpus, images=tuple(labeled)))
    _dump_json(out / "metrics.json", metrics.to_dict())
    _dump_json(out / "run-meta.json", _run_meta(config, {
        **phase1.counters,
        **phase2.counters,
        "label_model_max_duality_gap": model.appearance.max_duality_gap,
        "total_energy": phase2.total_energy,
        "note": "metrics are in-sample (model trained on this corpus); use cv for held-out numbers",
    }))
    print(f"aPA={metrics.apa:.4f} mAGR={metrics.magr:.4f} "
          f"(phase I {phase1.iteration_count} iters)")
    return 0


def cmd_eval(args) -> int:
    corpus = io.load_corpus(args.manifest)
    predictions = {image.id: io.read_pgm(Path(args.pred) / f"{image.id}.labels.pgm")
                   for image in corpus.images}
    metrics = pipeline.evaluate(predictions, corpus)
    _dump_json(args.out, metrics.to_dict())
    print(f"aPA={metrics.apa:.4f} mAGR={metrics.magr:.4f}")
    return 0


def cmd_cv(args) -> int:
    corpus, config, out = _inputs(args)
    result = pipeline.cross_validate(corpus, config)
    for image_id, label_map in sorted(result.label_maps.items()):
        io.write_pgm16(out / f"{image_id}.labels.pgm", label_map)
    _dump_json(out / "metrics.json", {
        "aPA_mean": result.apa_mean,
        "aPA_std": result.apa_std,
        "mAGR_mean": result.magr_mean,
        "mAGR_std": result.magr_std,
        "folds": [{
            "fold": o.fold,
            "test_ids": list(o.test_ids),
            "metrics": o.metrics.to_dict(),
            "phase1_iterations": o.counters["phase1_iterations"],
            "phase1_converged": o.phase1_converged,
        } for o in result.folds],
    })
    _dump_json(out / "run-meta.json", _run_meta(config, {
        "folds": [{"fold": o.fold, **o.counters} for o in result.folds]}))
    print(f"cv aPA={result.apa_mean:.4f}±{result.apa_std:.4f} "
          f"mAGR={result.magr_mean:.4f}±{result.magr_std:.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coparse",
                                     description="Joint co-segmentation and co-labeling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--spec", default=None, help="scene spec JSON (default: built-in)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    # the options every pipeline command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True)
    common.add_argument("--config", default=None)
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=int, default=None)
    for name, func, text in [
        ("group", cmd_group, "one grouping pass per image, no propagation"),
        ("esvm", cmd_esvm, "run Phase I and export exemplars/propagations"),
        ("run", cmd_run, "both phases end to end on one corpus"),
        ("cv", cmd_cv, "k-fold cross validation"),
    ]:
        sub.add_parser(name, help=text, parents=[common]).set_defaults(func=func)

    p = sub.add_parser("colabel", help="Phase II from stored Phase I outputs", parents=[common])
    p.add_argument("--phase1", required=True, help="directory written by 'esvm'")
    p.add_argument("--train-manifest", default=None,
                   help="corpus used to fit the label model (default: --manifest)")
    p.set_defaults(func=cmd_colabel)

    p = sub.add_parser("eval", help="score stored label maps against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CoparseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # every input is read through io, which raises DataError, so this is
        # an output that cannot be written
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
