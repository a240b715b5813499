"""Batch command line: compare, calibrate, evaluate, synth.

Data goes to stdout or the requested output files; diagnostics go to
stderr. Exit codes: 0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from .calibration import CalibrationSample, calibrate
from .fileio import (
    CalibratedModel,
    atomic_write_text,
    dump_json,
    load_face,
    load_manifest,
    load_model,
    save_face,
    save_manifest,
    save_model,
)
from .fuzzymath import DEFAULT_KERNELS, kernel_to_dict
from .scoring import MatchReport, ScoringConfig, compare, pair_scores
from .silhouette import AlphaMode
from .synthbench import PopulationConfig, generate_population, labeled_pairs, report_from_scores


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The four-subcommand parser, built on the first call and the same object after.

    Reuse is safe: parse_args keeps no state between calls, help is
    formatted (and the terminal width read) at call time, and the help
    text quotes only ScoringConfig's constant defaults.
    """
    parser = argparse.ArgumentParser(
        prog="fuzzyface",
        description="Face similarity scoring from landmark files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ScoringConfig()  # the help text quotes its defaults

    def add_raster_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--raster",
            type=int,
            metavar="N",
            default=None,
            help="raster resolution multiplier (default: sized to the canvas)",
        )

    def add_scoring_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--alpha-mode",
            choices=[m.value for m in AlphaMode],
            default=None,
            help=f"overlap score mode (default: {defaults.alpha_mode.value}, or the model's)",
        )
        p.add_argument(
            "--kernel",
            choices=sorted(DEFAULT_KERNELS),
            default=None,
            help=f"membership kernel (default: {kernel_to_dict(defaults.kernel)['type']}, "
                 "or the model's)",
        )
        add_raster_flag(p)

    p_compare = sub.add_parser("compare", help="score two face files")
    p_compare.add_argument("a", help="first face file")
    p_compare.add_argument("b", help="second face file")
    group = p_compare.add_mutually_exclusive_group()
    group.add_argument(
        "--k", type=float, default=None, help=f"mixing weight in [0, 1] (default {defaults.k})"
    )
    group.add_argument("--model", default=None, help="calibrated model file supplying k")
    add_scoring_flags(p_compare)
    fmt = p_compare.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print the report as JSON (default)")
    fmt.add_argument("--text", action="store_true", help="print the report as a table")
    p_compare.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser("calibrate", help="train the mixing weight from genuine pairs")
    p_cal.add_argument("manifest", help="pair manifest; genuine pairs are used in order")
    p_cal.add_argument("-o", "--output", required=True, help="model file to write")
    add_scoring_flags(p_cal)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_eval = sub.add_parser("evaluate", help="score a labeled manifest against a model")
    p_eval.add_argument("manifest", help="pair manifest with genuine and impostor labels")
    p_eval.add_argument("--model", required=True, help="calibrated model file")
    p_eval.add_argument("--threshold", type=float, required=True, help="accept threshold in [0, 100]")
    p_eval.add_argument("-o", "--output", required=True, help="report file to write")
    p_eval.add_argument("--csv", default=None, help="also write per-pair scores as CSV")
    add_raster_flag(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_synth = sub.add_parser("synth", help="write a synthetic population and manifest")
    p_synth.add_argument("--identities", type=int, required=True)
    p_synth.add_argument("--captures", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--identity-sigma", type=float, default=6.0)
    p_synth.add_argument("--capture-sigma", type=float, default=1.0)
    p_synth.add_argument("--outline-sigma", type=float, default=2.0)
    p_synth.add_argument("-o", "--output", required=True, help="directory to write")
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def _config_from_args(args, model: CalibratedModel | None) -> ScoringConfig:
    """The model's scoring context, or ScoringConfig's defaults, with the flags given applied."""
    settings = {} if model is None else {
        "k": model.k, "alpha_mode": model.alpha_mode, "kernel": model.kernel
    }
    flags = vars(args)
    if flags.get("k") is not None:
        settings["k"] = flags["k"]
    if flags.get("alpha_mode"):
        settings["alpha_mode"] = AlphaMode(flags["alpha_mode"])
    if flags.get("kernel"):
        settings["kernel"] = DEFAULT_KERNELS[flags["kernel"]]
    return ScoringConfig(**settings, resolution_scale=args.raster)


def _report_text(report: MatchReport) -> str:
    lines = [f"a: {report.a_id}    b: {report.b_id}"]
    lines.append(f"{'feature':<18}{'a':>12}{'b':>12}{'entropy':>12}{'membership':>12}")
    for row in report.features:
        lines.append(
            f"{row.name:<18}{row.a:>12.4f}{row.b:>12.4f}{row.entropy:>12.6f}{row.membership:>12.6f}"
        )
    lines.append(
        f"feature_score {report.feature_score:.6f}   alpha {report.alpha:.6f} "
        f"({report.alpha_mode.value})   k {report.k:.6f}"
    )
    lines.append(f"similarity {report.similarity:.4f}")
    return "\n".join(lines) + "\n"


def _cmd_compare(args) -> int:
    model = load_model(args.model) if args.model else None
    config = _config_from_args(args, model)
    report = compare(load_face(args.a), load_face(args.b), config)
    if args.text:
        sys.stdout.write(_report_text(report))
    else:
        sys.stdout.write(dump_json(report.to_dict()))
    return 0


def _cmd_calibrate(args) -> int:
    pairs = load_manifest(args.manifest)
    genuine = [p for p in pairs if p.label == "genuine"]
    ignored = len(pairs) - len(genuine)
    if ignored:
        print(
            f"warning: ignoring {ignored} impostor pair(s); calibration uses genuine pairs only",
            file=sys.stderr,
        )
    if not genuine:
        raise ValueError(f"{args.manifest}: no genuine pairs to calibrate from")
    config = _config_from_args(args, None)
    # in manifest order: updates depend on it
    state = calibrate(CalibrationSample(feature_score, alpha)
                      for feature_score, alpha, _ in _score_manifest(genuine, config))
    if not state.initialized:
        raise ValueError("every genuine pair was degenerate; cannot calibrate")
    if state.skipped:
        print(f"warning: skipped {state.skipped} degenerate sample(s)", file=sys.stderr)
    model = CalibratedModel.from_state(state, config.alpha_mode, config.kernel)
    save_model(model, args.output)
    print(f"calibrated k={model.k:.6f} from {model.n} pair(s) -> {args.output}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    pairs = load_manifest(args.manifest)
    config = _config_from_args(args, load_model(args.model))
    scored = [
        (pair.a.name, pair.b.name, pair.label, similarity)
        for pair, (_, _, similarity) in zip(pairs, _score_manifest(pairs, config))
    ]
    genuine = [s for _, _, label, s in scored if label == "genuine"]
    impostor = [s for _, _, label, s in scored if label == "impostor"]
    report = report_from_scores(genuine, impostor, args.threshold)
    atomic_write_text(args.output, dump_json(report.to_dict()))
    if args.csv:
        atomic_write_text(args.csv, _scores_csv(scored))
    print(
        f"evaluated {len(scored)} pair(s): auc={report.auc:.4f} "
        f"accuracy@{args.threshold:g}={report.accuracy_at_threshold:.4f} -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _score_manifest(pairs, config: ScoringConfig) -> list[tuple[float, float, float]]:
    """pair_scores of the manifest pairs in order, loading each distinct face file once."""
    index: dict[Path, int] = {}
    faces = []
    for pair in pairs:
        for path in (pair.a, pair.b):
            if path not in index:
                index[path] = len(faces)
                faces.append(load_face(path))
    return pair_scores(faces, [(index[pair.a], index[pair.b]) for pair in pairs], config)


def _scores_csv(scored) -> str:
    """Per-pair scores as CSV text; csv's \r\n row ends are kept as they are."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["a", "b", "label", "similarity"])
    for a, b, label, similarity in scored:
        writer.writerow([a, b, label, repr(similarity)])
    return buffer.getvalue()


def _cmd_synth(args) -> int:
    config = PopulationConfig(
        identity_count=args.identities,
        captures_per_identity=args.captures,
        identity_sigma=args.identity_sigma,
        capture_sigma=args.capture_sigma,
        outline_sigma=args.outline_sigma,
        seed=args.seed,
    )
    population = generate_population(config)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [f"{labeled.face.id}.json" for labeled in population]
    for labeled, name in zip(population, names):
        save_face(labeled.face, outdir / name)
    entries = [(names[i], names[j], label) for i, j, label in labeled_pairs(population)]
    save_manifest(entries, outdir / "manifest.json")
    print(
        f"wrote {len(population)} face(s) and {len(entries)} pair(s) to {outdir}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
