"""The batch command line surface: subcommands, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from statistics import fmean

import pytest

from conftest import make_face, stretch_refused_face, tiny_eyes_face, zero_area_face
from fuzzyface import (
    DEFAULT_KERNELS,
    AlphaMode,
    CalibrationSample,
    ScoringConfig,
    calibrate,
    load_face,
    load_manifest,
    load_model,
    save_face,
    score_pairs,
)
from fuzzyface.cli import build_parser, main
from fuzzyface.features import MAX_OUTLINE_VERTICES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def face_file(tmp_path):
    path = tmp_path / "face.json"
    save_face(make_face("probe"), path)
    return path


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "pop"
    code = main(["synth", "--identities", "2", "--captures", "2", "--seed", "7",
                 "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def run_module(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "fuzzyface.cli", *argv],
                          capture_output=True, text=True, env=env)


def score_manifest(manifest, config, label=None):
    """Reports for the manifest's pairs (those with ``label`` only, if given), in order."""
    pairs = [p for p in load_manifest(manifest) if label in (None, p.label)]
    paths = sorted({path for pair in pairs for path in (pair.a, pair.b)})
    index = {path: i for i, path in enumerate(paths)}
    faces = [load_face(path) for path in paths]
    return score_pairs(faces, [(index[p.a], index[p.b]) for p in pairs], config)


class TestCompare:
    def test_identity_comparison(self, capsys, face_file):
        code, out, err = run_cli(capsys, "compare", str(face_file), str(face_file), "--k", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["similarity"] == 100.0
        assert doc["a"] == doc["b"] == "probe"

    def test_json_is_consistent(self, capsys, face_file, tmp_path):
        other = tmp_path / "other.json"
        save_face(make_face("other", width=150, height=150), other)
        code, out, _ = run_cli(capsys, "compare", str(face_file), str(other))
        doc = json.loads(out)
        assert doc["feature_score"] == pytest.approx(
            fmean(row["membership"] for row in doc["features"]), abs=1e-12
        )
        expected = 100.0 * (doc["feature_score"] * doc["k"] + doc["alpha"] * (1 - doc["k"]))
        assert doc["similarity"] == pytest.approx(expected, abs=1e-9)

    def test_text_mode(self, capsys, face_file):
        code, out, _ = run_cli(capsys, "compare", str(face_file), str(face_file), "--text")
        assert code == 0
        assert "similarity 100" in out

    def test_byte_identical_runs(self, capsys, face_file):
        _, out1, _ = run_cli(capsys, "compare", str(face_file), str(face_file))
        _, out2, _ = run_cli(capsys, "compare", str(face_file), str(face_file))
        assert out1 == out2

    def test_kernel_and_mode_flags(self, capsys, face_file):
        code, out, _ = run_cli(
            capsys, "compare", str(face_file), str(face_file),
            "--kernel", "triangle", "--alpha-mode", "literal", "--raster", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kernel"]["type"] == "triangle"
        assert doc["alpha_mode"] == "literal"
        assert doc["resolution_scale"] == 2

    def test_compare_with_model(self, capsys, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        model = load_model(model_path)
        code, out, _ = run_cli(
            capsys, "compare",
            str(synth_dir / "id000_c00.json"), str(synth_dir / "id000_c01.json"),
            "--model", str(model_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == model.k
        assert doc["alpha_mode"] == model.alpha_mode.value

    def test_model_with_kernel_flag(self, capsys, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        model = load_model(model_path)
        code, out, _ = run_cli(
            capsys, "compare",
            str(synth_dir / "id000_c00.json"), str(synth_dir / "id001_c01.json"),
            "--model", str(model_path), "--kernel", "trapezoid",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == model.k
        assert doc["alpha_mode"] == model.alpha_mode.value
        assert doc["kernel"]["type"] == "trapezoid"

    def test_k_and_model_are_exclusive(self, capsys, face_file):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(face_file), str(face_file), "--k", "0.5", "--model", "m.json"])
        assert exc.value.code == 2

    def test_invalid_face_exits_one(self, capsys, tmp_path, face_file):
        bad = tmp_path / "bad.json"
        doc = json.loads((face_file).read_text())
        del doc["landmarks"]["chin"]
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "compare", str(face_file), str(bad))
        assert code == 1
        assert "chin" in err
        assert out == ""

    def test_stretch_refused_face_exits_one(self, tmp_path):
        found, big = tmp_path / "found.json", tmp_path / "big.json"
        save_face(stretch_refused_face(), found)
        save_face(make_face("big", width=768, height=768), big)
        result = run_module("compare", str(found), str(big))
        assert result.returncode == 1
        assert result.stderr == ("error: face 'found' stretched onto 768 x 768: "
                                 "outline is self-intersecting\n")
        assert result.stdout == ""

    def test_feature_without_entropy_exits_one_in_words(self, capsys, tmp_path, face_file):
        # the eyes 5e-324 apart load, and their share against 30.0 rounds to
        # 0: this printed "error: math domain error"
        tiny = tmp_path / "tiny.json"
        save_face(tiny_eyes_face(), tiny)
        code, out, err = run_cli(capsys, "compare", str(face_file), str(tiny))
        assert code == 1
        assert err == ("error: feature measurements 30.0 and 5e-324 have no entropy in floats: "
                       "their sum overflows or a share rounds to 0\n")
        assert out == ""

    def test_unparsable_face_exits_one(self, tmp_path, face_file):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000)  # nested past the parser's recursion limit
        result = run_module("compare", str(bad), str(face_file))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("side", [2**31, 2**63, 10**400])
    def test_oversized_image_exits_one(self, tmp_path, face_file, side):
        doc = json.loads(face_file.read_text())
        doc["image"]["width"] = side
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        for argv in ((big, face_file), (big, big)):
            result = run_module("compare", *map(str, argv))
            assert result.returncode == 1
            assert result.stderr.startswith(f"error: {big}: image width must be at most 65536")
            assert "Traceback" not in result.stderr
            assert result.stdout == ""

    def test_oversized_outline_exits_one_under_a_memory_limit(self, tmp_path, face_file):
        # 6,000 vertices would ask the self-intersection test for 275 MiB
        # matrices, which under this limit ended in a traceback
        resource = pytest.importorskip("resource")
        limit = 600 * 2**20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        doc = json.loads(face_file.read_text())
        n = 6000
        doc["outline"] = [[50 + 40 * math.cos(2 * math.pi * k / n),
                           50 + 40 * math.sin(2 * math.pi * k / n)] for k in range(n)]
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        result = subprocess.run([sys.executable, "-m", "fuzzyface.cli", "compare", str(big), str(big)],
                                capture_output=True, text=True, preexec_fn=limit_memory)
        assert result.returncode == 1
        assert result.stderr == (f"error: {big}: outline has {n} vertices, "
                                 f"more than {MAX_OUTLINE_VERTICES}\n")
        assert result.stdout == ""

    def test_oversized_raster_exits_one(self, synth_dir):
        # two 512 px faces at scale 17 make a frame of 8704**2 > 2**26 pixels
        faces = (synth_dir / "id000_c00.json", synth_dir / "id000_c01.json")
        result = run_module("compare", "--raster", "17", *map(str, faces))
        assert result.returncode == 1
        assert result.stderr.startswith("error: raster frame 8704 x 8704")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_utf8_face_under_ascii_locale(self, tmp_path, face_file):
        doc = json.loads(face_file.read_text())
        doc["id"] = "caf\u00e9"
        path = tmp_path / "cafe.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        result = run_module("compare", str(path), str(face_file), env=env)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["a"] == "caf\u00e9"

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestCalibrate:
    def test_calibrate_model(self, capsys, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, err = run_cli(
            capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path)
        )
        assert code == 0
        assert "ignoring" in err  # impostor pairs in the manifest are skipped
        model = load_model(model_path)
        assert 0.0 <= model.k <= 1.0
        assert model.n >= 1

    def test_no_genuine_pairs(self, capsys, tmp_path, face_file):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "version": 1,
            "pairs": [{"a": "face.json", "b": "face.json", "label": "impostor"}],
        }))
        code, _, err = run_cli(capsys, "calibrate", str(manifest), "-o", str(tmp_path / "m.json"))
        assert code == 1
        assert "no genuine pairs" in err

    def test_kernel_mode_and_raster_flags(self, capsys, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "calibrate", str(manifest), "-o", str(model_path),
                             "--kernel", "trapezoid", "--alpha-mode", "literal", "--raster", "2")
        assert code == 0
        model = load_model(model_path)
        assert model.kernel == DEFAULT_KERNELS["trapezoid"]
        assert model.alpha_mode is AlphaMode.LITERAL
        config = ScoringConfig(kernel=model.kernel, alpha_mode=model.alpha_mode,
                               resolution_scale=2)
        state = calibrate(CalibrationSample(r.feature_score, r.alpha)
                          for r in score_manifest(manifest, config, "genuine"))
        assert (model.k1, model.k2, model.n) == (state.k1, state.k2, state.n)

    def test_manifest_order_sensitivity(self, capsys, synth_dir, tmp_path):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        genuine = [p for p in manifest["pairs"] if p["label"] == "genuine"]
        assert len(genuine) >= 2
        # manifests resolve face paths relative to their own directory
        fwd = synth_dir / "fwd.json"
        fwd.write_text(json.dumps({"version": 1, "pairs": genuine}))
        rev = synth_dir / "rev.json"
        rev.write_text(json.dumps({"version": 1, "pairs": genuine[::-1]}))
        # order is honored; with two distinct samples the traces may differ,
        # but both must land in range
        code_f, _, _ = run_cli(capsys, "calibrate", str(fwd), "-o", str(tmp_path / "mf.json"))
        code_r, _, _ = run_cli(capsys, "calibrate", str(rev), "-o", str(tmp_path / "mr.json"))
        assert code_f == code_r == 0
        assert 0.0 <= load_model(tmp_path / "mf.json").k <= 1.0
        assert 0.0 <= load_model(tmp_path / "mr.json").k <= 1.0

    def test_unwritable_model_names_its_path(self, capsys, synth_dir, tmp_path):
        path = tmp_path / "nodir" / "model.json"
        code, out, err = run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"),
                                 "-o", str(path))
        assert (code, out) == (1, "")
        assert err.endswith(f"\nerror: [Errno 2] No such file or directory: '{path}'\n")
        assert not (tmp_path / "nodir").exists()


class TestEvaluate:
    def test_evaluate_report_and_csv(self, capsys, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "scores.csv"
        code, _, err = run_cli(
            capsys, "evaluate", str(synth_dir / "manifest.json"),
            "--model", str(model_path), "--threshold", "95",
            "-o", str(report_path), "--csv", str(csv_path),
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert 0.0 <= doc["auc"] <= 1.0
        assert doc["threshold"] == 95.0
        assert len(doc["genuine_scores"]) == 2
        assert len(doc["impostor_scores"]) == 4
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "a,b,label,similarity"
        assert len(lines) == 7

    def test_unwritable_csv_leaves_no_report(self, capsys, synth_dir, tmp_path):
        # the report is written before the CSV's directory is found missing
        self.check_unwritable_output(capsys, synth_dir, tmp_path, "csv")

    def test_unwritable_report_leaves_no_csv(self, capsys, synth_dir, tmp_path):
        self.check_unwritable_output(capsys, synth_dir, tmp_path, "report")

    def check_unwritable_output(self, capsys, synth_dir, tmp_path, missing):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        paths = {name: tmp_path / f"{name}.out" for name in ("report", "csv")}
        paths[missing] = tmp_path / "missing" / f"{missing}.out"
        code, out, err = run_cli(
            capsys, "evaluate", str(synth_dir / "manifest.json"),
            "--model", str(model_path), "--threshold", "95",
            "-o", str(paths["report"]), "--csv", str(paths["csv"]),
        )
        assert code == 1
        # the path asked for, not the temporary file beside it
        assert err == f"error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
        assert out == ""
        assert [path.name for path in tmp_path.iterdir() if path.is_file()] == ["model.json"]

    def test_report_and_csv_on_one_path_exits_one(self, capsys, synth_dir, tmp_path,
                                                  monkeypatch):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "evaluate", str(synth_dir / "manifest.json"),
            "--model", str(model_path), "--threshold", "90", "-o", "out.json", "--csv", "./out.json",
        )
        assert code == 1
        assert err == "error: outputs out.json and ./out.json are the same file\n"
        assert out == ""
        assert [path.name for path in tmp_path.iterdir() if path.is_file()] == ["model.json"]

    def test_first_bad_pair_is_the_one_error(self, capsys, synth_dir, tmp_path):
        # the zero-area pair comes before the pair that holds a face refused
        # once stretched, and only its error is printed
        for face in (make_face("a"), zero_area_face(), stretch_refused_face(),
                     make_face("big", width=768, height=768)):
            save_face(face, tmp_path / f"{face.id}.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "pairs": [
            {"a": "a.json", "b": "a.json", "label": "genuine"},
            {"a": "a.json", "b": "dot.json", "label": "genuine"},
            {"a": "found.json", "b": "big.json", "label": "impostor"},
        ]}))
        model_path = tmp_path / "model.json"
        run_cli(capsys, "calibrate", str(synth_dir / "manifest.json"), "-o", str(model_path))
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "evaluate", str(manifest), "--model", str(model_path),
                                 "--threshold", "90", "-o", str(report_path))
        assert code == 1
        assert err == "error: mask has zero area; outline did not cover any pixel center\n"
        assert out == "" and not report_path.exists()

    def test_raster_flag(self, capsys, synth_dir, tmp_path):
        manifest = synth_dir / "manifest.json"
        model_path = tmp_path / "model.json"
        csv_path = tmp_path / "scores.csv"
        run_cli(capsys, "calibrate", str(manifest), "-o", str(model_path))
        code, _, _ = run_cli(
            capsys, "evaluate", str(manifest), "--model", str(model_path), "--threshold", "95",
            "-o", str(tmp_path / "report.json"), "--csv", str(csv_path), "--raster", "2",
        )
        assert code == 0
        model = load_model(model_path)
        config = ScoringConfig(k=model.k, alpha_mode=model.alpha_mode, kernel=model.kernel,
                               resolution_scale=2)
        with open(csv_path, newline="") as handle:
            scores = [float(row["similarity"]) for row in csv.DictReader(handle)]
        assert scores == [r.similarity for r in score_manifest(manifest, config)]

    @pytest.mark.parametrize("flag", [["--kernel", "bell"], ["--alpha-mode", "literal"],
                                      ["--k", "0.5"]])
    def test_scoring_flags_not_offered(self, capsys, synth_dir, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(synth_dir / "manifest.json"), "--model", "m.json",
                  "--threshold", "90", "-o", str(tmp_path / "r.json"), *flag])
        assert exc.value.code == 2

    def test_missing_model_flag(self, capsys, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(synth_dir / "manifest.json"),
                  "--threshold", "90", "-o", str(tmp_path / "r.json")])
        assert exc.value.code == 2


class TestSynth:
    def test_population_layout(self, synth_dir):
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == [
            "id000_c00.json", "id000_c01.json",
            "id001_c00.json", "id001_c01.json",
            "manifest.json",
        ]
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        labels = [p["label"] for p in manifest["pairs"]]
        assert labels.count("genuine") == 2
        assert labels.count("impostor") == 4

    def test_byte_identical_directories(self, capsys, tmp_path):
        args = ["synth", "--identities", "2", "--captures", "2", "--seed", "7"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(args + ["-o", str(a_dir)]) == 0
        assert main(args + ["-o", str(b_dir)]) == 0
        capsys.readouterr()
        for path_a in sorted(a_dir.iterdir()):
            path_b = b_dir / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_huge_sigma_exits_one_without_a_warning(self, capsys, tmp_path):
        # the overflowing draws printed numpy's RuntimeWarning, which
        # -W error::RuntimeWarning turned into a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "synth", "--identities", "2", "--captures", "2",
                                     "--seed", "0", "--capture-sigma", "1e308",
                                     "-o", str(tmp_path / "pop"))
        assert code == 1
        assert err.startswith("error: could not draw a valid capture") and err.count("\n") == 1
        assert out == ""

    def test_module_entry_point(self, tmp_path, face_file):
        result = run_module("compare", str(face_file), str(face_file), "--k", "1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["similarity"] == 100.0


class TestParserReuse:
    """main reuses one parser per process; state must not leak between calls."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    # argparse's wording differs across Python versions, so the reference
    # is a fresh process of the same interpreter rather than pinned text
    @pytest.mark.parametrize("columns", ["40", "100"])
    def test_reused_parser_matches_a_fresh_process(self, capsys, monkeypatch, tmp_path,
                                                   face_file, columns):
        other = tmp_path / "other.json"
        save_face(make_face("other", width=150, height=150), other)
        a, b = str(face_file), str(other)
        env = dict(os.environ, COLUMNS=columns)
        build_parser()  # built before the width changes, so a frozen width would show
        monkeypatch.setenv("COLUMNS", columns)

        code, out, _ = run_cli(capsys, "compare", a, b, "--k", "0.3", "--text")
        assert code == 0 and out.startswith("a: probe")
        usage_error = ["compare", a, b, "--k", "0.3", "--model", "M"]
        with pytest.raises(SystemExit) as exc:
            main(usage_error)
        assert exc.value.code == 2
        fresh = run_module(*usage_error, env=env)
        assert fresh.returncode == 2
        assert capsys.readouterr().err == fresh.stderr
        # neither --k nor --text carries over into a call without flags
        code, out, _ = run_cli(capsys, "compare", a, b)
        assert code == 0
        assert out == run_module("compare", a, b, env=env).stdout

        for command in ([], ["compare"], ["calibrate"], ["evaluate"], ["synth"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            fresh = run_module(*command, "--help", env=env)
            assert fresh.returncode == 0
            assert capsys.readouterr().out == fresh.stdout
