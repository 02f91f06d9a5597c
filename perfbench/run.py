#!/usr/bin/env python3
"""coparse benchmark: three workloads, end-to-end metrics and traced layers.

    python3 perfbench/run.py --workload cv20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one report each

Run from the repository root. The program is imported from ``src/`` of the
working tree, never from an installed copy. ``--trace 0`` measures the
end-to-end metrics untraced, with unit times normalised by a host-speed
probe (hostspeed.py); ``--trace 1`` runs the same units once
untraced and once under the span tracer and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run also writes ``perfbench-out/<workload>-s<seed>-t<trace>/result.json``
with provenance, gate results, every op time and, when traced, every span.

perfbench/README.md says why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread: the steadiest timing on a small shared machine. Set
# before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib.util
import io as stdio
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"

SETUP_REPEATS = 5

# cv20: folds of the seed-42 10-fold CV run in one unit (see README.md).
CV_CORPUS_SEED = 42
CV_FOLDS = (5, 6, 8)
# run-large3: the criterion-8 corpus at twice the default size.
LARGE_CORPUS_SEED = 8
LARGE_SIZE = (256, 192)
LARGE_IMAGES = 3
# multicut-oracle: one unit is a round of one instance per node count.
ORACLE_NODES = range(2, 11)
ORACLE_TRACE_ROUNDS = 10     # traced runs use a fixed count, so counts repeat
ORACLE_TOL = 1e-9

APA_MIN, MAGR_MIN = 0.90, 0.75

END_TO_END = {
    "wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "accuracy": "ratio", "macro_accuracy": "ratio",
}

# Layer times are shares of the traced time (trace.wall_s), so they read as
# parts of wall_s; result.json keeps the absolute seconds per span.
PER_LAYER = {
    "grouping.solve_multicut.calls": "count",
    "grouping.solve_multicut.share": "ratio",
    "grouping.solve_multicut.self_share": "ratio",
    "grouping.solve_multicut.repeats": "count",
    "grouping.solve_multicut.repeat_frac": "ratio",
    "grouping.linprog.calls": "count",
    "grouping.linprog.share": "ratio",
    "grouping.linprog.vars_mean": "count",
    "grouping.linprog.rows_mean": "count",
    "grouping.instance_for_image.share": "ratio",
    "grouping.brute_force_multicut.calls": "count",
    "grouping.brute_force_multicut.share": "ratio",
    "grouping.brute_force_multicut.partitions_per_s": "1/s",
    "esvm.build_exemplar.calls": "count",
    "esvm.build_exemplar.repeats": "count",
    "esvm.build_exemplar.repeat_frac": "ratio",
    "esvm.train_esvm.calls": "count",
    "esvm.train_esvm.share": "ratio",
    "esvm.sample_negatives.share": "ratio",
    "esvm.propagate.calls": "count",
    "esvm.propagate.repeats": "count",
    "esvm.propagate.repeat_frac": "ratio",
    "esvm.detect.calls": "count",
    "esvm.detect.share": "ratio",
    "esvm.detect.kept": "count",
    "features.hog.calls": "count",
    "features.hog.share": "ratio",
    "features.region_histogram.calls": "count",
    "features.region_histogram.share": "ratio",
    "kernels.cell_histograms.share": "ratio",
    "kernels.score_windows.share": "ratio",
    "pipeline.train_label_model.share": "ratio",
    "colabel.build_graph.share": "ratio",
    "colabel.build_graph.vertices": "count",
    "colabel.build_graph.exterior_edges": "count",
    "graphcut.alpha_expansion.share": "ratio",
    "graphcut.alpha_expansion.sweeps": "count",
    "graphcut.max_flow.calls": "count",
    "graphcut.max_flow.share": "ratio",
    "io.load_corpus.share": "ratio",
    "io.write_pgm16.calls": "count",
    "pipeline.run_cosegmentation.share": "ratio",
    "pipeline.run_cosegmentation.iterations": "count",
    "pipeline.run_colabeling.share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.missing": "count",
    "trace.zero_calls": "count",
}


@dataclass
class UnitResult:
    """One unit of a workload: its ops, their gates and a result digest."""
    wall_s: float = 0.0
    norm_s: float = 0.0      # wall_s at the probe's nominal host speed
    probe_mean_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    op_group: list[int] = field(default_factory=list)   # fold, or node count
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    apa: float = 0.0         # 0 when no fold or run produced label maps
    magr: float = 0.0
    quality_ok: bool = True


def _sha256_maps(label_maps: dict) -> str:
    h = hashlib.sha256()
    for image_id in sorted(label_maps):
        h.update(image_id.encode())
        h.update(label_maps[image_id].astype("<i8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """``setup`` builds the inputs from the seed, ``units`` yields units of
    fixed work, ``run_unit`` runs one. Files go under ``workdir``."""
    same_unit = True         # every unit repeats the same input
    trace_units = 1          # units a traced run measures
    expected: set[str] = set()   # spans a traced run must see called

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def units(self, inputs):
        while True:
            yield inputs

    def quality(self, results) -> tuple[float, float]:
        """(accuracy, macro_accuracy): here aPA and mAGR."""
        return results[-1].apa, results[-1].magr


class Cv20(Workload):
    """pipeline.cross_validate on the seed-42 20-image corpus.

    By default the CV runs only the folds CV_FOLDS of the 10-fold split:
    ``pipeline.fold_assignment`` is replaced, for the call, by one that
    gives those folds the numbers 0.. and puts every other image in the
    training set of each. With ``full`` the whole 10-fold CV runs as is.
    """
    expected = {"grouping.instance_for_image", "grouping.solve_multicut",
                "grouping.linprog", "esvm.build_exemplar", "esvm.sample_negatives",
                "esvm.train_esvm", "esvm.propagate", "esvm.detect", "features.hog",
                "features.region_histogram", "kernels.cell_histograms",
                "kernels.score_windows", "colabel.build_graph",
                "graphcut.alpha_expansion", "graphcut.max_flow",
                "pipeline.train_label_model", "pipeline.run_cosegmentation",
                "pipeline.run_colabeling", "pipeline.evaluate"}

    def __init__(self, workdir, full=False):
        super().__init__(workdir)
        self.folds = None if full else CV_FOLDS

    def setup(self, seed):
        from coparse import synthgen
        return synthgen.generate(synthgen.default_scene_spec(seed=CV_CORPUS_SEED), 20)

    def run_unit(self, corpus):
        from coparse import pipeline
        config = pipeline.Config(seed=CV_CORPUS_SEED)
        folds = tuple(range(config.fold_count)) if self.folds is None else self.folds
        res = UnitResult()
        fold_ends = []
        evaluate = pipeline.evaluate

        def timed_evaluate(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            fold_ends.append(time.perf_counter())
            return result

        patches = {"evaluate": timed_evaluate}
        saved = {}
        outcomes = []
        start = time.perf_counter()
        try:
            if self.folds is not None:
                ids = [rec.id for rec in corpus.images]
                split = pipeline.fold_assignment(ids, config.fold_count, config.seed)
                number = {fold: i for i, fold in enumerate(folds)}
                subset = {image_id: number.get(fold, -1) for image_id, fold in split.items()}
                patches["fold_assignment"] = lambda *_args: subset
                config = replace(config, fold_count=len(folds))
            for name, fn in patches.items():
                saved[name] = getattr(pipeline, name)
                setattr(pipeline, name, fn)
            start = time.perf_counter()
            cv = pipeline.cross_validate(corpus, config)
            outcomes = list(cv.folds)
            res.digest = _sha256_maps(cv.label_maps)
            res.apa, res.magr = cv.apa_mean, cv.magr_mean
        except Exception:
            res.errors.append(traceback.format_exc())
        finally:
            for name, fn in saved.items():
                setattr(pipeline, name, fn)
        if len(fold_ends) == len(folds):
            res.op_s = [b - a for a, b in zip([start] + fold_ends, fold_ends)]
        converged = {o.fold: o.phase1_converged for o in outcomes}
        for i, fold in enumerate(folds):
            ok = converged.get(i, False)
            if i in converged and not ok:
                res.errors.append(f"fold {fold}: Phase I hit the iteration cap")
            res.op_ok.append(ok)
            res.op_group.append(fold)
        res.quality_ok = bool(outcomes) and res.apa >= APA_MIN and res.magr >= MAGR_MIN
        return res


class RunLarge3(Workload):
    """`coparse run` through cli.main on a 3-image corpus written to disk."""
    expected = Cv20.expected | {"io.load_corpus", "io.write_pgm16"}

    def setup(self, seed):
        from coparse import io, synthgen
        spec = synthgen.default_scene_spec(seed=LARGE_CORPUS_SEED)
        spec = replace(spec, height=LARGE_SIZE[0], width=LARGE_SIZE[1])
        corpus = synthgen.generate(spec, LARGE_IMAGES)
        return io.save_corpus(corpus, self.workdir / "corpus")

    def run_unit(self, manifest):
        from coparse import cli
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        res = UnitResult()
        start = time.perf_counter()
        code = None
        try:
            with contextlib.redirect_stdout(stdio.StringIO()):
                code = cli.main(["run", "--manifest", str(manifest), "--out", str(out),
                                 "--seed", str(LARGE_CORPUS_SEED)])
        except Exception:
            res.errors.append(traceback.format_exc())
        res.op_s.append(time.perf_counter() - start)
        maps = sorted(out.glob("*.labels.pgm")) if out.exists() else []
        ok = code == 0 and len(maps) == LARGE_IMAGES
        if code is not None and not ok:
            res.errors.append(f"exit code {code}, {len(maps)} label maps")
        res.op_ok.append(ok)
        res.op_group.append(0)
        h = hashlib.sha256()
        for path in maps:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        res.digest = h.hexdigest()
        if ok:
            metrics = json.loads((out / "metrics.json").read_text())
            res.apa, res.magr = metrics["aPA"], metrics["mAGR"]
        res.quality_ok = ok
        return res


class MulticutOracle(Workload):
    """The criterion-2 instance stream, one instance per node count a round."""
    same_unit = False
    trace_units = ORACLE_TRACE_ROUNDS
    expected = {"grouping.solve_multicut", "grouping.linprog",
                "grouping.brute_force_multicut"}

    def setup(self, seed):
        return seed          # rounds are drawn lazily, in units()

    def units(self, seed):
        import numpy as np
        from coparse import grouping
        rng = np.random.default_rng(seed)
        while True:
            nodes = rng.permutation(np.array(ORACLE_NODES))
            yield [self._instance(grouping, rng, int(n)) for n in nodes]

    @staticmethod
    def _instance(grouping, rng, n):
        # The generator of tests/test_acceptance.py criterion 2, with n given
        # and the edge count fixed at its expected value, 0.6 of the pairs:
        # the oracle's scan costs Bell(n) times the edge count, and a drawn
        # count varies by about 12% at n = 10.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = sorted(rng.choice(len(pairs), size=round(0.6 * len(pairs)), replace=False))
        edges = tuple((*pairs[i], int(rng.integers(0, 2))) for i in chosen)
        masks = []
        for _ in range(int(rng.integers(0, 3))):
            size = int(rng.integers(2, n + 1))
            ids = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
            masks.append((ids, float(rng.uniform(0.0, 1.0))))
        return grouping.MulticutInstance(node_count=n, edges=edges,
                                         mask_constraints=tuple(masks))

    def quality(self, results) -> tuple[float, float]:
        """The share of instances matching the oracle, and its mean over n."""
        by_n: dict[int, list[bool]] = {}
        for res in results:
            for n, ok in zip(res.op_group, res.op_ok):
                by_n.setdefault(n, []).append(ok)
        oks = [ok for group in by_n.values() for ok in group]
        return (sum(oks) / len(oks),
                statistics.fmean(sum(g) / len(g) for g in by_n.values()))

    def run_unit(self, instances):
        from coparse import grouping
        res = UnitResult()
        objectives = []
        for inst in instances:
            start = time.perf_counter()
            ok = False
            try:
                sol = grouping.solve_multicut(inst, 0.5)
                oracle = grouping.brute_force_multicut(inst, 0.5)
                objectives.append((sol.objective, oracle.objective))
                ok = abs(sol.objective - oracle.objective) <= ORACLE_TOL
                if not ok:
                    res.errors.append(f"n={inst.node_count}: objective {sol.objective}"
                                      f" vs oracle {oracle.objective}")
            except Exception:
                res.errors.append(traceback.format_exc())
            res.op_s.append(time.perf_counter() - start)
            res.op_ok.append(ok)
            res.op_group.append(inst.node_count)
        res.digest = hashlib.sha256(repr(objectives).encode()).hexdigest()
        return res


WORKLOADS = {"cv20": Cv20, "run-large3": RunLarge3, "multicut-oracle": MulticutOracle}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(workload, units, seconds=None, count=None, probe=None) -> list[UnitResult]:
    """Run ``count`` units, or units until ``seconds`` have passed.

    At least one unit runs, and the last one may end after ``seconds``. With
    a ``probe`` (hostspeed.HostSpeed), each unit's time leaves out the
    probe's samples and is also given normalised by their mean.
    """
    results, spans = [], []
    start = time.perf_counter()
    for unit in units:
        t0 = time.perf_counter()
        res = workload.run_unit(unit)
        t1 = time.perf_counter()
        res.wall_s = t1 - t0
        results.append(res)
        spans.append((t0, t1))
        if count is not None and len(results) >= count:
            break
        if seconds is not None and t1 - start >= seconds:
            break
    if probe is not None:
        from hostspeed import NOMINAL_SAMPLE_S
        run_mean = statistics.fmean(d for _, d in probe.samples)
        for res, (t0, t1) in zip(results, spans):
            window = probe.window(t0, t1)
            res.wall_s -= sum(window)
            res.probe_mean_s = statistics.fmean(window) if window else run_mean
            res.norm_s = res.wall_s * NOMINAL_SAMPLE_S / res.probe_mean_s
    return results


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10                       # 1-based rank with ten values above it
    return sorted(values)[k - 1], 100.0 * k / n


def layer_metrics(tracer, workload, totals, traced_wall, untraced_wall):
    """PER_LAYER values, plus the expected layers that made no call."""
    counters = tracer.counters
    out = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        entry = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if stat in ("calls", "share", "self_share"):
            value = {"calls": entry["calls"], "share": entry["s"] / traced_wall,
                     "self_share": entry["self_s"] / traced_wall}[stat]
        elif stat == "repeat_frac":
            base = counters.get(f"{span}.scoped_calls", 0)
            value = counters.get(f"{span}.repeats", 0) / base if base else 0.0
        elif stat.endswith("_mean"):
            total = counters.get(f"{span}.{stat[:-5]}", 0)
            value = total / entry["calls"] if entry["calls"] else 0.0
        elif stat == "partitions_per_s":
            value = (counters.get(f"{span}.partitions", 0) / entry["s"]
                     if entry["s"] else 0.0)
        else:
            value = counters.get(f"{span}.{stat}", 0)
        out[metric] = value
    zero = sorted(name for name in workload.expected
                  if name not in tracer.missing and name not in totals)
    out.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": tracer.covered_seconds() / traced_wall,
        "trace.spans": len(tracer.spans),
        "trace.missing": len(tracer.missing),
        "trace.zero_calls": len(zero),
    })
    return out, zero


def provenance(args) -> dict:
    import numpy
    import scipy
    from coparse import kernels
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(getattr(kernels, "NUMBA_ENABLED", False)),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "cv_corpus_seed": CV_CORPUS_SEED,
        "large_corpus_seed": LARGE_CORPUS_SEED,
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import coparse.cli; print(time.perf_counter() - t)")


def fresh_import_s() -> float:
    """Seconds to import coparse, with numpy and scipy, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, default=1002)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full-cv", action="store_true",
                   help="cv20 only: run all ten folds, not folds "
                        f"{', '.join(map(str, CV_FOLDS))}")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if not (ROOT / "src" / "coparse" / "__init__.py").is_file():
        print(f"perfbench: no coparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import coparse.cli  # noqa: F401  (imports every coparse module)
    import_s = time.perf_counter() - t0
    from hostspeed import NOMINAL_SAMPLE_S, HostSpeed, timed_sample

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.workload == "cv20":
        workload = Cv20(workdir, full=args.full_cv)
    else:
        workload = WORKLOADS[args.workload](workdir)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    workload.workdir.mkdir(parents=True)

    # Each set-up is normalised by reference samples taken just before and
    # after it, as a unit is by the samples taken while it runs.
    timed_sample()                  # warm the reference
    setup_runs, setup_probe = [], []
    for _ in range(SETUP_REPEATS):
        before = timed_sample()
        t_import = fresh_import_s()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_runs.append(t_import + time.perf_counter() - t0)
        setup_probe.append((before + timed_sample()) / 2)
    setup_s = statistics.median(run * NOMINAL_SAMPLE_S / probe
                                for run, probe in zip(setup_runs, setup_probe))

    trace_note = {}
    if args.trace:
        from tracing import Tracer
        count = workload.trace_units
        plain = measure(workload, workload.units(inputs), count=count)
        tracer = Tracer()
        tracer.install()
        try:
            results = measure(workload, workload.units(inputs), count=count)
        finally:
            tracer.uninstall()
        untraced_wall = sum(r.wall_s for r in plain)
        traced_wall = sum(r.wall_s for r in results)
        totals = tracer.totals()
        metrics, zero = layer_metrics(tracer, workload, totals, traced_wall, untraced_wall)
        same = [a.digest == b.digest for a, b in zip(plain, results)]
        trace_note = {"missing": tracer.missing, "zero_calls": zero,
                      "digests_match_untraced": all(same), "layer_seconds": totals}
        units = PER_LAYER
    else:
        with HostSpeed() as probe:
            results = measure(workload, workload.units(inputs), seconds=args.seconds,
                              probe=probe)
        same = [True]

    ops = [s for r in results for s in r.op_s]
    oks = [ok for r in results for ok in r.op_ok]
    digests = {r.digest for r in results}
    errors = [e for r in results for e in r.errors]
    acc, macro = workload.quality(results)
    attempted, failed = len(oks), oks.count(False)
    gates = {
        "ops_passed": f"{attempted - failed}/{attempted}",
        "quality": all(r.quality_ok for r in results),
        "deterministic": len(digests) == 1 or not workload.same_unit,
        "traced_matches_untraced": all(same),
    }
    correct = failed == 0 and all(gates[g] for g in
                                  ("quality", "deterministic", "traced_matches_untraced"))

    if not args.trace:
        metrics = {
            "wall_norm_s": statistics.fmean(r.norm_s for r in results),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": acc,
            "macro_accuracy": macro,
        }
        units = END_TO_END

    # -- human-readable report -------------------------------------------
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(results)} unit(s), {attempted} op(s)")
    if not args.trace:
        t = tail(ops)
        wall_s = statistics.fmean(r.wall_s for r in results)
        speed = statistics.fmean(r.probe_mean_s for r in results) / NOMINAL_SAMPLE_S
        print(f"  wall_norm_s    {metrics['wall_norm_s']:.4f} s  (mean of {len(results)} "
              "units, each at the nominal host speed)")
        print(f"  wall_s         {wall_s:.4f} s  (mean of raw unit times; the host ran "
              f"at {speed:.3f}x the nominal probe time)")
        print(f"  setup_s        {setup_s:.4f} s  (median of {SETUP_REPEATS} set-ups at the "
              "nominal host speed, each an import in a fresh interpreter + input build; "
              f"raw median {statistics.median(setup_runs):.4f} s)")
        print("  op_p50_s       " + (f"{statistics.median(ops):.4f} s  (n={len(ops)})"
                                     if len(ops) > 1 else f"n/a  (n={len(ops)})"))
        print("  op_tail_s      " + (f"{t[0]:.4f} s  (p{t[1]:.1f}, n={len(ops)})" if t
                                     else f"n/a  (needs 11 ops, have {len(ops)})"))
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
        if isinstance(workload, MulticutOracle):
            print(f"  aPA, mAGR      n/a; oracle-match share {acc:.4f}, "
                  f"per-node-count mean {macro:.4f}")
        else:
            print(f"  aPA            {acc:.4f}")
            print(f"  mAGR           {macro:.4f}")
        print(f"  failed_frac    {failed}/{attempted}")
    else:
        print(f"  {'span':<32} {'calls':>7} {'s':>9} {'self_s':>9} {'share':>6}")
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["s"]):
            print(f"  {name:<32} {entry['calls']:>7} {entry['s']:>9.3f} "
                  f"{entry['self_s']:>9.3f} {entry['s'] / traced_wall:>6.3f}")
        width = max(map(len, metrics))
        for name, value in metrics.items():
            print(f"  {name:<{width}}  {value:.6g} {units[name]}")
        print(f"  missing: {trace_note['missing'] or 'none'}; "
              f"zero calls where expected: {zero or 'none'}")
    print(f"  gates: {gates}")
    print(f"  digest sha256:{sorted(digests)[0]}" if len(digests) == 1
          else f"  {len(digests)} distinct unit digests (distinct inputs)")
    for err in errors[:5]:
        print(f"  error: {err.strip()}")

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args), "gates": gates, "correct": correct,
        "attempted": attempted, "failed": failed, "digests": sorted(digests),
        "errors": errors, "metrics": metrics, "setup_runs_s": setup_runs,
        "setup_probe_s": setup_probe,
        "import_s": import_s, "unit_wall_s": [r.wall_s for r in results],
        "unit_norm_s": [r.norm_s for r in results],
        "unit_probe_mean_s": [r.probe_mean_s for r in results],
        "op_s": ops, "op_group": [g for r in results for g in r.op_group],
        **trace_note,
    }
    if args.trace:
        record["spans"] = tracer.span_records()
    for sub in ("corpus", "out"):
        shutil.rmtree(workload.workdir / sub, ignore_errors=True)
    (workload.workdir / "result.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
