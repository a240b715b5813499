#!/usr/bin/env python3
"""Benchmark of the fuzzyface verification job on seeded synthetic populations.

Run from the repository root:

    python3 perfbench/run.py --workload cli_job_512 --seed 0 --seconds 30 --trace 0

For about ``--seconds``, a run repeats rounds. Each round sets the
workload up (a fresh import of the package from ``src/`` plus the seeded
population), runs the whole job (generate or ``synth``, calibrate,
evaluate), and then one pass of a closed 1:1 ``compare`` loop, one
caller, over a fixed seeded sample of pairs. Job times and each pair's
latency are means over the run's rounds, so a burst of interference from
a shared host moves them in proportion to its length. With ``--trace 1``
it runs fewer rounds and then one traced job,
whose spans come from wrappers this file installs over the functions the
package's modules import from each other; no program code changes.

Every run checks correctness: at the default seed and sizes the
digests of the evaluate report, the calibrated model and the per-pair
CSV must match ``digests.json``; at any seed, sampled per-pair scores of
``evaluate`` must be bit-identical to separate ``compare`` calls.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment and run sizes. A full record, spans included when traced,
is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"
DIGESTS_FILE = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
CAPTURE_SIGMA = 5.0  # noisy captures keep AUC below 1, so a quality loss can show
THRESHOLD = 90.0
THREADS = min(2, os.cpu_count() or 1)
SETUP_REPS = 3  # per round
MIN_JOBS = 3
CHECK_PAIRS = 40  # pairs cross-checked against compare in a traced run


@dataclass(frozen=True)
class Workload:
    name: str
    identities: int
    captures: int
    # (width, height) of the captures; every identity gets this mix, in seeded order
    image_sizes: tuple[tuple[int, int], ...]
    resolution_scale: int | None
    via_cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_job_512", 10, 3, ((512, 512),), None, True),
        Workload("lib_mixed_res", 10, 3, ((256, 384), (768, 512), (384, 768)), None, False),
        Workload("lib_lowres_r1", 20, 3, ((128, 128),), 1, False),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "evaluate_pairs_per_s": "pairs/s",
    "calibrate_pairs_per_s": "pairs/s",
    "compare_p50_ms": "ms",
    "compare_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "auc": "ratio",
}

PER_LAYER_UNITS = {
    "cli.synth.s": "s",
    "cli.calibrate.s": "s",
    "cli.evaluate.s": "s",
    "fileio.load_face.calls": "count",
    "fileio.load_face.us_per_call": "us",
    "fileio.load_face.unique_ratio": "ratio",
    "fileio.save.calls": "count",
    "fileio.save.us_per_call": "us",
    "geometry.polygon_is_simple.calls": "count",
    "geometry.polygon_is_simple.calls_per_face": "count",
    "geometry.polygon_is_simple.us_per_call": "us",
    "features.extract_features.calls": "count",
    "features.extract_features.us_per_call": "us",
    "fuzzymath.membership.calls": "count",
    "fuzzymath.membership.us_per_call": "us",
    "silhouette.normalize_pair.calls": "count",
    "silhouette.normalize_pair.us_per_call": "us",
    "silhouette.rasterize.calls": "count",
    "silhouette.rasterize.us_per_call": "us",
    "silhouette.rasterize.pixels": "px",
    "silhouette.rasterize.unique_ratio": "ratio",
    "silhouette.rasterize.job_share_pct": "%",
    "silhouette.alpha_from_masks.calls": "count",
    "silhouette.alpha_from_masks.us_per_call": "us",
    "scoring.compare.calls": "count",
    "scoring.compare.self_us_per_call": "us",
    "calibration.update.calls": "count",
    "calibration.update.us_per_call": "us",
    "calibration.skipped": "count",
    "synthbench.generate_population.s": "s",
    "synthbench.evaluate.s": "s",
    "synthbench.report_from_scores.s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the package sources are missing."""


# ---------------------------------------------------------------- set-up


def fresh_import():
    """Import fuzzyface (and its CLI) from ``src/``, dropping any earlier import."""
    init = ROOT / "src" / "fuzzyface" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package sources not found: {init.relative_to(ROOT)}")
    src = str(ROOT / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "fuzzyface" or m.startswith("fuzzyface.")]:
        del sys.modules[name]
    ff = importlib.import_module("fuzzyface")
    if Path(ff.__file__).resolve() != init.resolve():
        raise BenchError(f"imported fuzzyface from {ff.__file__}, not from src/")
    importlib.import_module("fuzzyface.cli")
    return ff


def dealt_sizes(rng: random.Random, sizes, identities: int, captures: int) -> list:
    """Image size of each capture: every identity deals the same mix in its own seeded order.

    Dealing instead of drawing keeps the multiset of pair canvases, and
    so the raster work, the same for every seed; only which capture gets
    which size changes.
    """
    dealt = []
    for _ in range(identities):
        order = rng.sample(range(len(sizes)), len(sizes))
        dealt.extend(sizes[order[c % len(sizes)]] for c in range(captures))
    return dealt


def rescaled(ff, face, width: int, height: int):
    """The same capture photographed at width x height."""
    if (width, height) == (face.image_width, face.image_height):
        return face
    sx, sy = width / face.image_width, height / face.image_height

    def point(pt):
        return (min(pt[0] * sx, float(width)), min(pt[1] * sy, float(height)))

    return ff.FaceInput(
        id=face.id,
        image_width=width,
        image_height=height,
        landmarks={name: point(pt) for name, pt in face.landmarks.items()},
        outline=tuple(point(pt) for pt in face.outline),
    )


@dataclass
class Inputs:
    ff: object
    cli: object
    workload: Workload
    seed: int
    identities: int
    captures: int
    sizes: list[tuple[int, int]]  # (width, height) per capture
    population: list = field(default_factory=list)  # LabeledFace at the workload's sizes
    pairs: list[tuple[int, int, bool]] = field(default_factory=list)  # (i, j, genuine), i < j
    sample: list[int] = field(default_factory=list)  # pair indices of the 1:1 loop, in order

    @property
    def genuine_count(self) -> int:
        return sum(1 for _, _, genuine in self.pairs if genuine)

    def generate(self) -> list:
        """The seeded population, each capture rescaled to its dealt size."""
        ff = self.ff
        config = ff.PopulationConfig(
            identity_count=self.identities,
            captures_per_identity=self.captures,
            capture_sigma=CAPTURE_SIGMA,
            seed=self.seed,
        )
        return [
            ff.LabeledFace(lf.identity, rescaled(ff, lf.face, w, h))
            for lf, (w, h) in zip(ff.generate_population(config), self.sizes)
        ]


def set_up(workload: Workload, seed: int, identities: int, captures: int) -> Inputs:
    ff = fresh_import()
    rng = random.Random(seed)
    sizes = dealt_sizes(rng, workload.image_sizes, identities, captures)
    inputs = Inputs(ff, sys.modules["fuzzyface.cli"], workload, seed, identities, captures, sizes)
    pop = inputs.population = inputs.generate()
    inputs.pairs = [
        (i, j, pop[i].identity == pop[j].identity)
        for i in range(len(pop))
        for j in range(i + 1, len(pop))
    ]
    # The 1:1 sample is half the pairs of each canvas size, so its raster
    # work is the same for every seed.
    order = rng.sample(range(len(inputs.pairs)), len(inputs.pairs))
    by_canvas: dict[tuple[int, int], list[int]] = {}
    for k in order:
        i, j, _ = inputs.pairs[k]
        canvas = (max(sizes[i][0], sizes[j][0]), max(sizes[i][1], sizes[j][1]))
        by_canvas.setdefault(canvas, []).append(k)
    taken = {k for ks in by_canvas.values() for k in ks[:(len(ks) + 1) // 2]}
    inputs.sample = [k for k in order if k in taken]
    return inputs


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans and counters recorded by wrappers around package functions.

    A span is [name, start_ns, end_ns, parent_index, pair_id]. The pair id
    is the ordinal of the ``compare`` call a span belongs to; spans
    between two compares (such as the CLI's face loads) are charged to
    the next one.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pair_id = 0
        self.loaded: set = set()  # distinct face files
        self.rasters: set = set()  # distinct (outline, canvas width, height, scale)
        self.pixels = 0  # mask pixels produced
        self.skipped = 0  # degenerate calibration samples
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        is_compare = name == "scoring.compare"
        index = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, self.pair_id])
        self.stack.append(index)
        self.spans[index][1] = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter_ns()
            self.stack.pop()
            if is_compare:
                self.pair_id += 1

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` to a traced wrapper; ``after(args, kwargs, result)`` counts."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, ff) -> None:
        mods = {name: sys.modules[f"fuzzyface.{name}"]
                for name in ("cli", "features", "scoring", "silhouette", "synthbench")}
        cli, scoring, synthbench = mods["cli"], mods["scoring"], mods["synthbench"]

        def load_noted(args, kwargs, result):
            self.loaded.add(str(args[0]))

        def raster_noted(args, kwargs, result):
            outline, canvas = args[0], args[1]
            scale = args[2] if len(args) > 2 else kwargs.get("resolution_scale")
            self.rasters.add((tuple(outline), canvas.width, canvas.height, scale))
            self.pixels += result.bits.size

        def update_noted(args, kwargs, result):
            self.skipped = args[0].skipped

        self.wrap(cli, "load_face", "fileio.load_face", load_noted)
        for attr in ("save_face", "save_manifest", "save_model", "atomic_write_text"):
            self.wrap(cli, attr, "fileio.save")
        for owner in (mods["features"], mods["silhouette"]):
            self.wrap(owner, "polygon_is_simple", "geometry.polygon_is_simple")
        for owner in (scoring, synthbench):
            self.wrap(owner, "extract_features", "features.extract_features")
        self.wrap(scoring, "feature_membership", "fuzzymath.membership")
        self.wrap(scoring, "normalize_pair", "silhouette.normalize_pair")
        self.wrap(scoring, "rasterize", "silhouette.rasterize", raster_noted)
        self.wrap(scoring, "alpha_from_masks", "silhouette.alpha_from_masks")
        for owner in (ff, cli, synthbench):
            self.wrap(owner, "compare", "scoring.compare")
        self.wrap(ff.CalibrationState, "update", "calibration.update", update_noted)
        for owner in (ff, cli):
            self.wrap(owner, "generate_population", "synthbench.generate_population")
        self.wrap(ff, "evaluate", "synthbench.evaluate")
        for owner in (cli, synthbench):
            self.wrap(owner, "report_from_scores", "synthbench.report_from_scores")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, faces: int, traced_job_s: float, untraced_job_s: float) -> dict:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[index]

        def us_per_call(name, ns=total_ns):
            return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

        def seconds(name):
            return total_ns[name] / 1e9

        def unique_ratio(distinct, name):
            return len(distinct) / calls[name] if calls[name] else 0.0

        m = {
            "cli.synth.s": seconds("cli.synth"),
            "cli.calibrate.s": seconds("cli.calibrate"),
            "cli.evaluate.s": seconds("cli.evaluate"),
            "fileio.load_face.unique_ratio": unique_ratio(self.loaded, "fileio.load_face"),
            "fileio.save.calls": calls["fileio.save"],
            "fileio.save.us_per_call": us_per_call("fileio.save"),
            "geometry.polygon_is_simple.calls_per_face":
                calls["geometry.polygon_is_simple"] / faces,
            "silhouette.rasterize.pixels": self.pixels,
            "silhouette.rasterize.unique_ratio": unique_ratio(self.rasters, "silhouette.rasterize"),
            "silhouette.rasterize.job_share_pct":
                100.0 * seconds("silhouette.rasterize") / traced_job_s,
            "scoring.compare.calls": calls["scoring.compare"],
            "scoring.compare.self_us_per_call": us_per_call("scoring.compare", self_ns),
            "calibration.skipped": self.skipped,
            "synthbench.generate_population.s": seconds("synthbench.generate_population"),
            "synthbench.evaluate.s": seconds("synthbench.evaluate"),
            "synthbench.report_from_scores.s": seconds("synthbench.report_from_scores"),
            "trace.overhead_pct": 100.0 * (traced_job_s - untraced_job_s) / untraced_job_s,
        }
        for name in ("fileio.load_face", "geometry.polygon_is_simple", "features.extract_features",
                     "fuzzymath.membership", "silhouette.normalize_pair", "silhouette.rasterize",
                     "silhouette.alpha_from_masks", "calibration.update"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.us_per_call"] = us_per_call(name)
        return {name: m[name] for name in PER_LAYER_UNITS}

    def dump(self) -> dict:
        """Spans with times relative to the first span, names interned."""
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "pair"],
            "names": names,
            "rows": [[index[n], s - t0, e - t0, p, pair] for n, s, e, p, pair in self.spans],
        }


# ---------------------------------------------------------------- the job


@dataclass
class JobResult:
    generate_s: float
    calibrate_s: float
    evaluate_s: float
    auc: float
    scores: dict[tuple[int, int], float]  # evaluate's similarity per (i, j)
    digests: dict[str, str]
    compare_config: object = None  # lib: the evaluate config
    workdir: Path | None = None  # cli: synth output with model.json

    @property
    def job_s(self) -> float:
        return self.generate_s + self.calibrate_s + self.evaluate_s


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scores_csv(rows) -> str:
    """Per-pair scores in the layout of ``fuzzyface evaluate --csv``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["a", "b", "label", "similarity"])
    for a, b, label, similarity in rows:
        writer.writerow([a, b, label, repr(similarity)])
    return buf.getvalue()


def run_cli(inputs: Inputs, argv: list[str], span) -> None:
    """Call ``fuzzyface.cli.main`` in-process with its output captured."""
    err = io.StringIO()
    with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = inputs.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fuzzyface {argv[0]} exited {code}: {err.getvalue().strip()}")


def cli_job(inputs: Inputs, workdir: Path, tracer: Tracer | None) -> JobResult:
    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    shutil.rmtree(workdir, ignore_errors=True)
    manifest, model = workdir / "manifest.json", workdir / "model.json"
    report, scores = workdir / "report.json", workdir / "scores.csv"
    t0 = perf_counter()
    run_cli(inputs, ["synth", "--identities", str(inputs.identities),
                     "--captures", str(inputs.captures), "--seed", str(inputs.seed),
                     "--capture-sigma", str(CAPTURE_SIGMA), "-o", str(workdir)],
            span("cli.synth"))
    t1 = perf_counter()
    run_cli(inputs, ["calibrate", str(manifest), "-o", str(model)], span("cli.calibrate"))
    t2 = perf_counter()
    run_cli(inputs, ["evaluate", str(manifest), "--model", str(model),
                     "--threshold", str(THRESHOLD), "-o", str(report), "--csv", str(scores)],
            span("cli.evaluate"))
    t3 = perf_counter()

    index = {f"{lf.face.id}.json": k for k, lf in enumerate(inputs.population)}
    with open(scores, newline="") as handle:
        rows = list(csv.DictReader(handle))
    per_pair = {(index[r["a"]], index[r["b"]]): float(r["similarity"]) for r in rows}
    return JobResult(
        generate_s=t1 - t0,
        calibrate_s=t2 - t1,
        evaluate_s=t3 - t2,
        auc=json.loads(report.read_text())["auc"],
        scores=per_pair,
        digests={name: sha256(path.read_bytes())
                 for name, path in (("report", report), ("model", model), ("csv", scores))},
        workdir=workdir,
    )


def lib_job(inputs: Inputs) -> JobResult:
    ff = inputs.ff
    scale = inputs.workload.resolution_scale
    t0 = perf_counter()
    population = inputs.generate()
    t1 = perf_counter()
    config = ff.ScoringConfig(resolution_scale=scale)
    state = ff.CalibrationState()
    for i, j, genuine in inputs.pairs:  # in order: calibration updates are order-dependent
        if genuine:
            r = ff.compare(population[i].face, population[j].face, config)
            state.update(ff.CalibrationSample(r.feature_score, r.alpha))
    model = ff.CalibratedModel.from_state(state, config.alpha_mode, config.kernel)
    t2 = perf_counter()
    config = ff.ScoringConfig(k=model.k, alpha_mode=model.alpha_mode, kernel=model.kernel,
                              resolution_scale=scale)
    report = ff.evaluate(population, config, threshold=THRESHOLD)
    t3 = perf_counter()

    # evaluate keeps each label's scores in pair order
    by_label = {True: iter(report.genuine_scores), False: iter(report.impostor_scores)}
    per_pair = {(i, j): next(by_label[genuine]) for i, j, genuine in inputs.pairs}
    dump_json = sys.modules["fuzzyface.fileio"].dump_json
    rows = [(f"{population[i].face.id}.json", f"{population[j].face.id}.json",
             "genuine" if genuine else "impostor", per_pair[i, j])
            for i, j, genuine in inputs.pairs]
    return JobResult(
        generate_s=t1 - t0,
        calibrate_s=t2 - t1,
        evaluate_s=t3 - t2,
        auc=report.auc,
        scores=per_pair,
        digests={
            "report": sha256(dump_json(report.to_dict()).encode()),
            "model": sha256(dump_json(model.to_dict()).encode()),
            "csv": sha256(scores_csv(rows).encode()),
        },
        compare_config=config,
    )


def run_job(inputs: Inputs, workdir: Path, tracer: Tracer | None = None) -> JobResult:
    if inputs.workload.via_cli:
        return cli_job(inputs, workdir, tracer)
    return lib_job(inputs)


# ---------------------------------------------------------------- 1:1 compare


def compare_once(inputs: Inputs, job: JobResult, i: int, j: int) -> tuple[float, float]:
    """One verification call; returns (seconds, similarity)."""
    a, b = inputs.population[i].face, inputs.population[j].face
    if inputs.workload.via_cli:
        argv = ["compare", str(job.workdir / f"{a.id}.json"), str(job.workdir / f"{b.id}.json"),
                "--model", str(job.workdir / "model.json")]
        out = io.StringIO()  # stdout is discarded, then parsed only for the check
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = inputs.cli.main(argv)
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"fuzzyface compare exited {code}")
        return elapsed, json.loads(out.getvalue())["similarity"]
    t0 = perf_counter()
    similarity = inputs.ff.compare(a, b, job.compare_config).similarity
    return perf_counter() - t0, similarity


def same_bits(x: float, y: float) -> bool:
    return isinstance(x, float) and isinstance(y, float) and x.hex() == y.hex()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)
        print(f"perfbench: {note}", file=sys.stderr)


def compare_pass(inputs: Inputs, job: JobResult, tally: Tally, sample) -> dict[int, float]:
    """Closed loop over the pair indices in ``sample``; each call is checked against evaluate.

    Returns the seconds each successful call took, by pair index.
    """
    latencies = {}
    for k in sample:
        i, j, _ = inputs.pairs[k]
        tally.attempted += 1
        try:
            elapsed, similarity = compare_once(inputs, job, i, j)
        except Exception as exc:  # a failed call counts; the loop keeps measuring
            tally.fail(1, f"compare {i}-{j} raised {exc!r}")
            continue
        if not same_bits(similarity, job.scores[i, j]):
            tally.fail(1, f"compare {i}-{j} gave {similarity!r}, evaluate {job.scores[i, j]!r}")
            continue
        latencies[k] = elapsed
    return latencies


# ---------------------------------------------------------------- one run


def expected_digests(workload: Workload, seed: int, identities: int, captures: int):
    """Committed output digests, when this run reproduces the run that made them."""
    expected = json.loads(DIGESTS_FILE.read_text()).get(workload.name)
    if expected is None or [expected[k] for k in ("seed", "identities", "captures")] != [
        seed, identities, captures
    ]:
        return None
    return {key: expected[key] for key in ("report", "model", "csv")}


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(inputs: Inputs) -> dict:
    import numpy  # already loaded by the package, after the thread caps were set

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "git_commit": git_commit(),
        "workload": inputs.workload.name,
        "seed": inputs.seed,
        "identities": inputs.identities,
        "captures": inputs.captures,
        "faces": len(inputs.population),
        "pairs": len(inputs.pairs),
        "genuine_pairs": inputs.genuine_count,
        "image_sizes": [list(wh) for wh in inputs.workload.image_sizes],
        "resolution_scale": inputs.workload.resolution_scale,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        identities: int | None = None, captures: int | None = None) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(THREADS)
    workload = WORKLOADS[workload_name]
    identities = identities or workload.identities
    captures = captures or workload.captures
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"

    setup_times: list[float] = []

    def fresh_inputs() -> Inputs:
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            inputs = set_up(workload, seed, identities, captures)
            setup_times.append(perf_counter() - t0)
        return inputs

    expected = expected_digests(workload, seed, identities, captures)
    tally = Tally()

    def checked_job(inputs: Inputs, tracer=None) -> JobResult | None:
        pairs = inputs.genuine_count + len(inputs.pairs)
        tally.attempted += pairs
        try:
            job = run_job(inputs, workdir, tracer)
        except Exception:  # a failed job counts all its pairs; the run goes on
            tally.fail(pairs, "job failed:\n" + traceback.format_exc())
            return None
        if expected is not None and job.digests != expected:
            tally.fail(len(inputs.pairs), f"output digests {job.digests} differ from {expected}")
        return job

    # Each round sets up afresh, runs a job and, untraced, one pass over the
    # 1:1 sample, so every kind of sample spans the whole run and sees the
    # same machine conditions.
    inputs = fresh_inputs()
    sample = inputs.sample  # the same for every set-up
    rounds: list[tuple[float, float, float]] = []  # (job, calibrate, evaluate) seconds
    passes: list[dict[int, float]] = []  # seconds of each 1:1 call by pair index, per round
    last = None  # inputs and result of the latest completed job
    start = perf_counter()
    job_budget = seconds * (0.5 if trace else 1.0)
    min_jobs = MIN_JOBS - 1 if trace else MIN_JOBS
    round_s = 0.0  # the last round's length: a round starts only if it should end in budget
    try:
        while len(rounds) < min_jobs or perf_counter() - start + round_s < job_budget:
            round_start = perf_counter()
            job = checked_job(inputs)
            if job is None and last is None:
                break
            if job is not None:
                last = inputs, job
                rounds.append((job.job_s, job.calibrate_s, job.evaluate_s))
                if not trace:
                    passes.append(compare_pass(inputs, job, tally, sample))
            inputs = fresh_inputs()
            round_s = perf_counter() - round_start
        if last is None:
            raise BenchError("no job completed; see the errors above")
        job_times = [r[0] for r in rounds]
        record: dict = {"env": environment(inputs), "digests": last[1].digests,
                        "setup_s": setup_times, "job_s": job_times}

        if trace:
            tracer = Tracer()
            tracer.install(inputs.ff)
            try:
                traced = checked_job(inputs, tracer)
            finally:
                tracer.uninstall()
            if traced is None:
                raise BenchError("the traced job failed; see the errors above")
            compare_pass(inputs, traced, tally, sample[:CHECK_PAIRS])
            metrics = tracer.layer_metrics(len(inputs.population), traced.job_s,
                                           statistics.fmean(job_times))
            units = PER_LAYER_UNITS
            record["spans"] = tracer.dump()
        else:
            # each pair's latency is the mean of its calls, one per round
            latencies = [statistics.fmean(p[k] for p in passes if k in p)
                         for k in sample if any(k in p for p in passes)]
            if len(latencies) < len(sample) // 2:
                raise BenchError("too few compare calls succeeded to report latency")
            percentiles = statistics.quantiles(latencies, n=100)
            evaluate_pairs, calibrate_pairs = len(inputs.pairs), inputs.genuine_count
            metrics = {
                "setup_s": median(setup_times),
                "job_s": statistics.fmean(job_times),
                # throughput over all jobs of the run: total pairs / total time
                "evaluate_pairs_per_s": evaluate_pairs * len(rounds) / sum(r[2] for r in rounds),
                "calibrate_pairs_per_s": calibrate_pairs * len(rounds) / sum(r[1] for r in rounds),
                "compare_p50_ms": 1e3 * median(latencies),
                "compare_p95_ms": 1e3 * percentiles[94],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "auc": last[1].auc,
            }
            units = END_TO_END_UNITS
            record["compare_samples"] = len(latencies)
            record["compare_passes_s"] = [list(p.values()) for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    record["jobs"] = len(rounds)
    record["failures"] = tally.notes
    record["result"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(json.dumps({"env": record["env"], "jobs": record["jobs"],
                      "compare_samples": record.get("compare_samples"),
                      "record": str(out.relative_to(ROOT))}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
